package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"digamma"
	"digamma/internal/obs"
	"digamma/internal/report"
)

// State is a job's lifecycle phase.
type State string

// Job states. queued → running → {done, degraded, failed, cancelled}; a
// queued job may also jump straight to cancelled. Degraded is done's
// best-effort sibling: the job's wall-clock deadline expired and the
// result is the best design point found within it, not the full budget's.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateDegraded  State = "degraded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateDegraded || s == StateFailed || s == StateCancelled
}

// Event is one entry in a job's progress stream (the SSE `data:` payload).
// Type "progress" carries a per-generation search snapshot; type "state"
// marks a lifecycle transition (the last one is always terminal).
type Event struct {
	Type         string  `json:"type"` // "progress" or "state"
	State        State   `json:"state,omitempty"`
	Generation   int     `json:"generation,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	Budget       int     `json:"budget,omitempty"`
	BestFitness  float64 `json:"best_fitness,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// DeltaEvals / LayersReused / PoolReuseRate surface the engine's
	// dirty-layer delta path: candidates scored incrementally, per-layer
	// analyses cloned from breeding parents, and the share of Evaluation
	// buffers served by recycling (see core.Progress).
	DeltaEvals    int     `json:"delta_evals,omitempty"`
	LayersReused  int     `json:"layers_reused,omitempty"`
	PoolReuseRate float64 `json:"pool_reuse_rate,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// Job is one submitted search: its resolved spec, lifecycle state, result,
// and progress-event history with live subscribers. All mutable fields are
// guarded by mu; the event history is append-only so subscribers replay it
// and then follow the live channel without gaps.
type Job struct {
	ID   string
	Hash string
	// Tenant is the submitting tenant (DefaultTenant for legacy traffic):
	// the key the fair scheduler queues and accounts the job under.
	Tenant string
	// cost is the job's admission weight — its sampling budget, the
	// deficit-round-robin currency (≈ in-flight evaluations while the
	// search runs).
	cost int
	spec *searchSpec

	// cacheHits/cacheMisses mirror the latest progress snapshot's
	// evalcache counters, so the server can fold a finished job's cache
	// behaviour into the aggregate /metrics hit rate; deltaEvals,
	// layersReused, poolGets and poolReuses do the same for the delta
	// path and the evaluation pool.
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	deltaEvals   atomic.Uint64
	layersReused atomic.Uint64
	poolGets     atomic.Uint64
	poolReuses   atomic.Uint64

	// resume, when set by startup recovery, is the engine checkpoint the
	// re-enqueued search continues from. recovered marks a job rebuilt
	// from the store after a restart.
	resume    *digamma.Checkpoint
	recovered bool

	// trace is the job's flight recorder (nil when tracing is disabled):
	// the engine records its phase spans into it, the serve layer its
	// queue-wait and store-I/O spans. Immutable after construction, so it
	// is read without the job lock.
	trace *obs.Tracer

	// done closes on the first terminal transition. GET
	// /v1/jobs/{id}?wait= long-polls on it instead of burning status
	// round-trips — at sub-millisecond warm-started search times, poll
	// quantization would otherwise dominate the request latency.
	done chan struct{}

	mu     sync.Mutex
	state  State
	err    string
	result *digamma.Evaluation
	// resultReport carries a recovered job's persisted result: after a
	// restart the live evaluation is gone, but the serialized report —
	// the wire shape clients read — survives in the store.
	resultReport *report.Report
	created      time.Time
	started      time.Time
	finished     time.Time
	cancel       context.CancelFunc
	events       feed[Event]
	// runReport is the structured run report built when the job reaches a
	// terminal state (GET /v1/jobs/{id}/report).
	runReport *JobReport
}

func newJob(id string, spec *searchSpec) *Job {
	return &Job{
		ID:      id,
		Hash:    spec.hash,
		Tenant:  spec.req.Tenant,
		cost:    spec.req.Budget,
		spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// Done returns a channel closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// closeDoneLocked releases Done waiters. Every terminal transition is
// guarded against double entry, but the select keeps a future refactor
// from turning a second close into a panic.
func (j *Job) closeDoneLocked() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// State snapshots the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Publish appends a progress event.
func (j *Job) Publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events.publishLocked(ev)
}

// Subscribe returns the event history so far plus a live channel for what
// follows. Call unsub when done.
func (j *Job) Subscribe() (replay []Event, ch chan Event, unsub func()) {
	return j.events.subscribe(&j.mu)
}

// setRunning transitions queued → running and installs the cancel hook.
// It returns false when the job was cancelled while queued (the worker
// must skip it).
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	// Queue wait: creation (or recovery) → worker pickup, on the serve
	// lane. Recorded as a run-cat span so the report excludes it from the
	// phase sum (it precedes the search).
	j.trace.Record(obs.Span{
		Name: obs.PhaseQueueWait, Cat: obs.CatRun,
		Island: -1, Gen: -1,
		Dur: j.started.Sub(j.created),
	})
	j.events.publishLocked(Event{Type: "state", State: StateRunning})
	return true
}

// finish records a terminal state. It is a no-op if the job is already
// terminal (e.g. cancel racing with completion — first transition wins).
func (j *Job) finish(state State, result *digamma.Evaluation, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	if err != nil {
		j.err = err.Error()
	}
	j.events.publishLocked(Event{Type: "state", State: state, Error: j.err})
	j.closeDoneLocked()
	return true
}

// requestCancel implements DELETE /v1/jobs/{id}: a queued job is finished
// as cancelled immediately; a running one has its search context
// cancelled (the engine notices at the next generation boundary and the
// worker records the terminal state). Returns the state observed and
// whether this call finalized the job itself (so the caller knows to
// run terminal bookkeeping).
func (j *Job) requestCancel() (State, bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		j.err = "cancelled while queued"
		j.events.publishLocked(Event{Type: "state", State: StateCancelled, Error: j.err})
		j.closeDoneLocked()
		j.mu.Unlock()
		return StateCancelled, true
	}
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	if state == StateRunning && cancel != nil {
		cancel()
	}
	return state, false
}

// Status is the job's wire representation (GET /v1/jobs/{id}).
type Status struct {
	ID           string         `json:"id"`
	State        State          `json:"state"`
	Deduplicated bool           `json:"deduplicated,omitempty"`
	Tenant       string         `json:"tenant,omitempty"` // omitted for the default tenant
	RequestHash  string         `json:"request_hash"`
	Model        string         `json:"model"`
	Platform     string         `json:"platform"`
	Objective    string         `json:"objective"`
	Algorithm    string         `json:"algorithm"`
	Budget       int            `json:"budget"`
	Seed         int64          `json:"seed"`
	Fidelity     string         `json:"fidelity"`
	Prune        bool           `json:"prune,omitempty"`
	Islands      int            `json:"islands,omitempty"`
	MigrateEvery int            `json:"migrate_every,omitempty"`
	Profiles     []string       `json:"island_profiles,omitempty"`
	CreatedAt    time.Time      `json:"created_at"`
	StartedAt    *time.Time     `json:"started_at,omitempty"`
	FinishedAt   *time.Time     `json:"finished_at,omitempty"`
	Error        string         `json:"error,omitempty"`
	Progress     *Event         `json:"progress,omitempty"`
	Result       *report.Report `json:"result,omitempty"`
}

// Status snapshots the job. The full result report is attached only when
// withResult is set (job listings stay light).
func (j *Job) Status(withResult bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.ID,
		State:        j.state,
		RequestHash:  j.Hash,
		Model:        j.spec.model.Name,
		Platform:     j.spec.req.Platform,
		Objective:    j.spec.req.Objective,
		Algorithm:    j.spec.req.Algorithm,
		Budget:       j.spec.req.Budget,
		Seed:         j.spec.req.Seed,
		Fidelity:     j.spec.req.Fidelity,
		Prune:        j.spec.req.Prune,
		Islands:      j.spec.req.Islands,
		MigrateEvery: j.spec.req.MigrateEvery,
		Profiles:     j.spec.req.IslandProfiles,
		CreatedAt:    j.created,
		Error:        j.err,
	}
	if j.Tenant != DefaultTenant {
		st.Tenant = j.Tenant
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	for i := len(j.events.history) - 1; i >= 0; i-- {
		if j.events.history[i].Type == "progress" {
			ev := j.events.history[i]
			st.Progress = &ev
			break
		}
	}
	if withResult {
		switch {
		case j.result != nil:
			st.Result = report.FromEvaluation(j.result)
		case j.resultReport != nil:
			st.Result = j.resultReport
		}
	}
	return st
}

// restoreTerminal rehydrates a recovered job straight into its persisted
// terminal state (no worker involved): status, error, result report and
// the terminal state event subscribers would otherwise never see.
func (j *Job) restoreTerminal(rec *TerminalRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = rec.State
	j.err = rec.Error
	j.resultReport = rec.Result
	j.finished = rec.FinishedAt
	j.events.publishLocked(Event{Type: "state", State: rec.State, Error: rec.Error})
	j.closeDoneLocked()
}

// terminalRecord snapshots the job's persisted wire state for the store.
func (j *Job) terminalRecord() TerminalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := TerminalRecord{
		ID:         j.ID,
		Hash:       j.Hash,
		State:      j.state,
		Error:      j.err,
		FinishedAt: j.finished,
	}
	switch {
	case j.result != nil:
		rec.Result = report.FromEvaluation(j.result)
	case j.resultReport != nil:
		rec.Result = j.resultReport
	}
	return rec
}

// Result returns the evaluation of a done job (nil otherwise).
func (j *Job) Result() *digamma.Evaluation {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Report returns the job's run report, nil until a terminal state built
// one.
func (j *Job) Report() *JobReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runReport
}

// setReport attaches the terminal run report.
func (j *Job) setReport(rep *JobReport) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runReport = rep
}

// times snapshots the lifecycle timestamps for report building.
func (j *Job) times() (created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created, j.started, j.finished
}
