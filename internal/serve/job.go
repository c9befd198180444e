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

// frame names the event's SSE frame and reports whether the stream ends
// with it (a terminal state).
func (ev Event) frame() (string, bool) { return ev.Type, ev.Type == "state" && ev.State.Terminal() }

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
	// claimed marks a queued job a cancel took over: it stays queued until
	// settled, but no worker may start it.
	claimed bool
	events  feed[Event]
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
// It returns false when a cancel claimed the job while it was queued (the
// worker must skip it; the cancel settles it).
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.claimed {
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

// finish makes a terminal state visible — Status, the SSE state event and
// Done — from the job's terminal record and, for a job this process ran,
// its live evaluation. Server.settle calls it as its last step; recovery
// calls it for jobs whose record survived a restart. Only a job without
// an evaluation keeps the record's report: per job, the report costs more
// memory than the evaluation it is built from.
func (j *Job) finish(rec TerminalRecord, result *digamma.Evaluation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.err, j.finished, j.result = rec.State, rec.Error, rec.FinishedAt, result
	if result == nil {
		j.resultReport = rec.Result
	}
	j.events.publishLocked(Event{Type: "state", State: rec.State, Error: rec.Error})
	close(j.done)
}

// requestCancel implements DELETE /v1/jobs/{id}: a queued job is claimed,
// so no worker will run it, and the caller settles it; a running one has
// its search context cancelled (the engine notices at the next generation
// boundary and the worker settles the job). Reports whether this call
// claimed the job.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state == StateQueued && !j.claimed {
		j.claimed = true
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return false
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
