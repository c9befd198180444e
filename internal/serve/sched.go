package serve

import (
	"errors"
	"slices"
	"sync"
)

// Admission-control sentinels. errQueueFull and errClosed map to HTTP 503
// (the whole service is saturated or going away — same behaviour single-
// tenant trees shipped); errTenantCap maps to 429 with Retry-After (one
// tenant exceeded its own budget while the service still has headroom, so
// backing off and retrying is the right client move).
var (
	errQueueFull = errors.New("queue full")
	errTenantCap = errors.New("tenant over budget cap")
	errClosed    = errors.New("server is draining")
)

// defaultQuantum is the deficit-round-robin replenishment per weight unit
// per scheduling round, in evaluation-budget units (one queued search of
// the default 2000-sample budget per round for a weight-1 tenant).
const defaultQuantum = 2000

// tenantCap is one admission limit: a default applied to every tenant
// plus explicit per-tenant overrides. An override wins even when it is 0
// (that tenant becomes unlimited while the default still binds the rest),
// and a 0 default with no override means unlimited — the legacy single-
// number behaviour.
type tenantCap struct {
	def int
	per map[string]int
}

// limit resolves the cap that binds the named tenant (0 = unlimited).
func (c tenantCap) limit(name string) int {
	if v, ok := c.per[name]; ok {
		return v
	}
	return c.def
}

// tenantQ is one tenant's scheduler state: its FIFO backlog, DRR deficit,
// and the accounting admission control charges against. A tenantQ exists
// only while the tenant has queued or running work — idle tenants cost no
// memory, so tenant-name churn cannot grow the scheduler without bound.
type tenantQ struct {
	name    string
	weight  int
	deficit int    // evals this tenant may dispatch before yielding the round
	queue   []*Job // FIFO within the tenant
	running int    // jobs dispatched and not yet released
	// outstanding is the admission-control budget: the summed sampling
	// budgets (≈ in-flight evals) of every queued + running job.
	outstanding int
}

// scheduler replaces the single FIFO deque with a deterministic weighted
// deficit-round-robin queue keyed by tenant. Dispatch order is a pure
// function of (arrival order, weights, budgets, quantum) — never of how
// many workers drain it or how their wakeups interleave, because every
// transition happens under one mutex and each pop consults only scheduler
// state. Within a tenant, order is FIFO; across tenants, each rotation
// hands tenant t up to weight(t)·quantum evals of backlog, so a tenant
// that saturates its queue cannot push another tenant's job back by more
// than one rotation (starvation-freedom by construction). With a single
// tenant — all legacy traffic — the rotation degenerates to the exact
// FIFO the deque gave.
//
// Lock order where held together: Server.mu → scheduler.mu (the same
// place the old qmu sat).
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	quantum   int            // evals per weight unit per rotation
	depthCap  int            // global queued-job bound (Config.QueueDepth)
	jobCap    tenantCap      // per-tenant queued+running cap
	budgetCap tenantCap      // per-tenant outstanding-eval cap
	weights   map[string]int // configured weights; absent tenants weigh 1

	tenants map[string]*tenantQ
	ring    []*tenantQ // tenants with queued work, in activation order
	cursor  int        // current DRR position in ring
	queued  int        // total queued jobs across tenants

	// starved counts force-dispatches by the anti-wedge guard in pop: a
	// rotation budget large enough to cover any admissible job means the
	// guard can only fire on a scheduler bug, so the counter is an SLO
	// tripwire (asserted zero by the scheduler tests), not a mechanism.
	starved uint64

	// onDispatch, when set (tests only), observes every pop under mu — the
	// one place a globally ordered dispatch log can be captured without
	// racing the workers that triggered it.
	onDispatch func(*Job)
}

func newScheduler(depthCap int, jobCap, budgetCap tenantCap, quantum int, weights map[string]int) *scheduler {
	if quantum <= 0 {
		quantum = defaultQuantum
	}
	sc := &scheduler{
		quantum:   quantum,
		depthCap:  depthCap,
		jobCap:    jobCap,
		budgetCap: budgetCap,
		weights:   weights,
		tenants:   make(map[string]*tenantQ),
	}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// tenantWeight resolves a tenant's configured DRR weight (≥ 1).
func (sc *scheduler) tenantWeight(name string) int {
	if w, ok := sc.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// tenant returns (creating if needed) the tenant's queue state. Callers
// hold sc.mu.
func (sc *scheduler) tenantLocked(name string) *tenantQ {
	t := sc.tenants[name]
	if t == nil {
		t = &tenantQ{name: name, weight: sc.tenantWeight(name)}
		sc.tenants[name] = t
	}
	return t
}

// gcLocked drops a tenant that holds no work and no accounting, so the
// scheduler's memory is bounded by the number of *active* tenants, not by
// every tenant name ever seen.
func (sc *scheduler) gcLocked(t *tenantQ) {
	if len(t.queue) == 0 && t.running == 0 && t.outstanding == 0 {
		delete(sc.tenants, t.name)
	}
}

// admit checks capacity for n more jobs totalling budget evals from
// tenant, without reserving anything: all queue growth happens under
// Server.mu (the same invariant the old deque relied on), so the state
// checked here can only shrink before the matching enqueue.
func (sc *scheduler) admit(tenant string, n, budget int) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return errClosed
	}
	if sc.queued+n > sc.depthCap {
		return errQueueFull
	}
	t := sc.tenants[tenant] // nil fine: zero queued/running/outstanding
	var queuedRunning, outstanding int
	if t != nil {
		queuedRunning, outstanding = len(t.queue)+t.running, t.outstanding
	}
	if cap := sc.jobCap.limit(tenant); cap > 0 && queuedRunning+n > cap {
		return errTenantCap
	}
	if cap := sc.budgetCap.limit(tenant); cap > 0 && outstanding+budget > cap {
		return errTenantCap
	}
	return nil
}

// enqueue appends a job to its tenant's backlog (activating the tenant in
// the rotation if it was idle) and wakes one worker. Returns false only
// when the scheduler has closed. force bypasses the capacity check — the
// recovery path must never drop jobs the WAL promised.
func (sc *scheduler) enqueue(j *Job, force bool) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return false
	}
	if !force && sc.queued >= sc.depthCap {
		return false
	}
	t := sc.tenantLocked(j.Tenant)
	if len(t.queue) == 0 {
		// Activation: join the rotation at the tail with a fresh round's
		// deficit, so a newly active tenant can dispatch as soon as the
		// cursor reaches it.
		t.deficit = t.weight * sc.quantum
		sc.ring = append(sc.ring, t)
	}
	t.queue = append(t.queue, j)
	t.outstanding += j.cost
	sc.queued++
	sc.cond.Signal()
	return true
}

// deactivateLocked removes an empty tenant from the rotation, keeping the
// cursor on the same next-to-serve tenant.
func (sc *scheduler) deactivateLocked(t *tenantQ) {
	for i, r := range sc.ring {
		if r == t {
			sc.ring = append(sc.ring[:i], sc.ring[i+1:]...)
			if i < sc.cursor {
				sc.cursor--
			}
			if len(sc.ring) > 0 {
				sc.cursor %= len(sc.ring)
			} else {
				sc.cursor = 0
			}
			t.deficit = 0 // classic DRR: no backlog, no banked credit
			return
		}
	}
}

// dequeue blocks until a job is dispatchable or the scheduler closes
// (nil). The dispatched job's tenant is charged a running slot; release
// settles it when the job leaves the system.
func (sc *scheduler) dequeue() *Job {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for sc.queued == 0 && !sc.closed {
		sc.cond.Wait()
	}
	if sc.closed {
		return nil
	}
	return sc.popLocked()
}

// popLocked runs the DRR rotation until one job dispatches. The guard
// bound is the number of rotations after which every backlogged tenant's
// deficit must exceed its head job's cost — if the loop ever runs past
// it, force-dispatching keeps the server alive and the starved counter
// records the bug.
func (sc *scheduler) popLocked() *Job {
	guard := 0
	limit := sc.guardLimitLocked()
	for {
		t := sc.ring[sc.cursor]
		if t.deficit >= t.queue[0].cost {
			return sc.dispatchLocked(t)
		}
		// This tenant's round is spent; move on, granting the next tenant
		// its replenishment as its turn starts.
		sc.cursor = (sc.cursor + 1) % len(sc.ring)
		next := sc.ring[sc.cursor]
		next.deficit += next.weight * sc.quantum
		if guard++; guard > limit {
			sc.starved++
			return sc.dispatchLocked(next)
		}
	}
}

// guardLimitLocked bounds popLocked's rotation count: enough full
// rotations that even a weight-1 tenant's deficit covers the costliest
// head job in the ring.
func (sc *scheduler) guardLimitLocked() int {
	maxCost := 0
	for _, t := range sc.ring {
		if len(t.queue) > 0 && t.queue[0].cost > maxCost {
			maxCost = t.queue[0].cost
		}
	}
	return (maxCost/sc.quantum+2)*len(sc.ring) + 2
}

// dispatchLocked pops tenant t's head job and settles the rotation state.
func (sc *scheduler) dispatchLocked(t *tenantQ) *Job {
	j := t.queue[0]
	t.queue = t.queue[1:]
	t.deficit -= j.cost
	t.running++
	sc.queued--
	if len(t.queue) == 0 {
		sc.deactivateLocked(t)
	}
	if sc.onDispatch != nil {
		sc.onDispatch(j)
	}
	return j
}

// release settles a job's accounting once it leaves the system (terminal,
// or left recoverable by a drain): a job still queued — cancelled before a
// worker took it — gives back its queue slot, a dispatched one its running
// slot, and either way its budget.
func (sc *scheduler) release(j *Job) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := sc.tenants[j.Tenant]
	if t == nil {
		return
	}
	t.outstanding -= j.cost
	if i := slices.Index(t.queue, j); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
		sc.queued--
		if len(t.queue) == 0 {
			sc.deactivateLocked(t)
		}
	} else {
		t.running--
	}
	sc.gcLocked(t)
}

// close wakes every blocked worker with nil.
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// depth snapshots the total queued-job count.
func (sc *scheduler) depth() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.queued
}

// starvedCount reports the anti-wedge tripwire (zero on a healthy
// scheduler).
func (sc *scheduler) starvedCount() uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.starved
}

// tenantSnapshot is one tenant's live load, for /metrics.
type tenantSnapshot struct {
	Queued  int
	Running int
}

// snapshot returns per-tenant queued/running counts for every tenant with
// live work.
func (sc *scheduler) snapshot() map[string]tenantSnapshot {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]tenantSnapshot, len(sc.tenants))
	for name, t := range sc.tenants {
		out[name] = tenantSnapshot{Queued: len(t.queue), Running: t.running}
	}
	return out
}

// tenantLoad reports one tenant's queued+running job count (Retry-After
// estimation).
func (sc *scheduler) tenantLoad(name string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := sc.tenants[name]
	if t == nil {
		return 0
	}
	return len(t.queue) + t.running
}
