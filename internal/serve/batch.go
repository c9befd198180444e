package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// BatchRequest is the POST /v1/batches body: shared defaults plus N
// per-item overrides, fanned into the job machinery as one unit. A batch
// belongs to exactly one tenant (body field, else the X-Digamma-Tenant
// header, else the default tenant) — its items schedule under that
// tenant's weight and interleave with other tenants' work instead of
// monopolizing the worker pool.
type BatchRequest struct {
	Tenant string `json:"tenant,omitempty"`
	// Defaults seeds every item; an item's zero-valued fields inherit from
	// it. Boolean knobs (prune, warm_start) combine by OR — a default of
	// true cannot be switched off per item.
	Defaults OptimizeRequest   `json:"defaults,omitempty"`
	Items    []OptimizeRequest `json:"items"`
}

// mergeRequest resolves one batch item against the shared defaults: the
// item's set (non-zero) fields win, everything else inherits. Model and
// Layers move together — an item naming either replaces the default
// workload entirely, so a default model can never leak under an item's
// inline layers.
func mergeRequest(def, item OptimizeRequest) OptimizeRequest {
	out := def
	if item.Model != "" || len(item.Layers) > 0 {
		out.Model, out.Layers, out.ModelName = item.Model, item.Layers, item.ModelName
	}
	if item.ModelName != "" {
		out.ModelName = item.ModelName
	}
	if item.Platform != "" {
		out.Platform = item.Platform
	}
	if item.Objective != "" {
		out.Objective = item.Objective
	}
	if item.Algorithm != "" {
		out.Algorithm = item.Algorithm
	}
	if item.Budget != 0 {
		out.Budget = item.Budget
	}
	if item.Seed != 0 {
		out.Seed = item.Seed
	}
	if item.Fidelity != "" {
		out.Fidelity = item.Fidelity
	}
	if item.Prune {
		out.Prune = true
	}
	if item.Islands != 0 {
		out.Islands = item.Islands
	}
	if item.MigrateEvery != 0 {
		out.MigrateEvery = item.MigrateEvery
	}
	if len(item.IslandProfiles) > 0 {
		out.IslandProfiles = item.IslandProfiles
	}
	if item.WarmStart {
		out.WarmStart = true
	}
	if item.Target != 0 {
		out.Target = item.Target
	}
	if item.Workers != 0 {
		out.Workers = item.Workers
	}
	return out
}

// batchMember is one item's resolution: the job serving it and whether it
// was deduplicated onto a job that existed before (or earlier in) this
// batch. Dedup members are shared with other requesters, so a batch-wide
// cancel leaves them alone.
type batchMember struct {
	job   *Job
	dedup bool
}

// BatchEvent is one entry in a batch's SSE stream: a "member" event per
// member terminal transition, then one "done" event when the last member
// settles.
type BatchEvent struct {
	Type      string `json:"type"` // "member" or "done"
	Index     int    `json:"index,omitempty"`
	Job       string `json:"job,omitempty"`
	State     State  `json:"state,omitempty"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
}

// frame names the event's SSE frame and reports whether the stream ends
// with it (the "done" event).
func (ev BatchEvent) frame() (string, bool) { return ev.Type, ev.Type == "done" }

// Batch is one accepted batch: its members in item order, completion
// tracking and the event stream. Like Job, the done channel closes on the
// last member's terminal transition and the event history is append-only.
type Batch struct {
	ID      string
	Tenant  string
	created time.Time

	done chan struct{}

	mu        sync.Mutex
	members   []batchMember
	remaining int
	finished  time.Time
	events    feed[BatchEvent]
}

func newBatch(id, tenant string, members []batchMember) *Batch {
	return &Batch{
		ID:        id,
		Tenant:    tenant,
		created:   time.Now(),
		done:      make(chan struct{}),
		members:   members,
		remaining: len(members),
	}
}

// Done returns a channel closed once every member is terminal.
func (b *Batch) Done() <-chan struct{} { return b.done }

// Subscribe returns the event history so far plus a live channel for what
// follows. Call unsub when done.
func (b *Batch) Subscribe() (replay []BatchEvent, ch chan BatchEvent, unsub func()) {
	return b.events.subscribe(&b.mu)
}

// noteMemberDone records one member's terminal transition, reporting
// whether this was the batch's last open member.
func (b *Batch) noteMemberDone(index int, j *Job) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.remaining--
	completed := len(b.members) - b.remaining
	b.events.publishLocked(BatchEvent{
		Type: "member", Index: index, Job: j.ID, State: j.State(),
		Completed: completed, Total: len(b.members),
	})
	if b.remaining > 0 {
		return false
	}
	b.finished = time.Now()
	b.events.publishLocked(BatchEvent{Type: "done", Completed: completed, Total: len(b.members)})
	select {
	case <-b.done:
	default:
		close(b.done)
	}
	return true
}

// BatchStatus is the batch's wire representation (GET /v1/batches/{id}).
// State is "running" until every member is terminal, then "done" — the
// per-item statuses carry each member's own outcome (a failed member does
// not fail the batch).
type BatchStatus struct {
	ID           string     `json:"id"`
	State        State      `json:"state"`
	Tenant       string     `json:"tenant,omitempty"` // omitted for the default tenant
	CreatedAt    time.Time  `json:"created_at"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
	Total        int        `json:"total"`
	Completed    int        `json:"completed"`
	Deduplicated int        `json:"deduplicated,omitempty"`
	Items        []Status   `json:"items"`
}

// batchStatus snapshots the batch. Per-item result reports are attached
// only when withResult is set (the submit response stays light; the
// status endpoint is the aggregate-results read).
func (s *Server) batchStatus(b *Batch, withResult bool) BatchStatus {
	b.mu.Lock()
	members := append([]batchMember(nil), b.members...)
	finished := b.finished
	remaining := b.remaining
	b.mu.Unlock()
	st := BatchStatus{
		ID:        b.ID,
		State:     StateRunning,
		CreatedAt: b.created,
		Total:     len(members),
		Completed: len(members) - remaining,
		Items:     make([]Status, len(members)),
	}
	if b.Tenant != DefaultTenant {
		st.Tenant = b.Tenant
	}
	if remaining == 0 {
		st.State = StateDone
		if !finished.IsZero() {
			t := finished
			st.FinishedAt = &t
		}
	}
	for i, m := range members {
		js := m.job.Status(withResult && m.job.State() == StateDone)
		js.Deduplicated = m.dedup
		if m.dedup {
			st.Deduplicated++
		}
		st.Items[i] = js
	}
	return st
}

// submitBatch accepts N resolved specs, all one tenant (the decoder
// enforces it), as one unit through accept.
func (s *Server) submitBatch(specs []*searchSpec) (*Batch, error) {
	_, b, err := s.accept(specs, true)
	return b, err
}

// watchBatch starts one watcher per member: each fires on its job's
// terminal transition (immediately for members that were already
// terminal, e.g. dedup hits onto done jobs) and the last one marks the
// batch finished. Watchers exit on shutdown — a drain that leaves members
// non-terminal leaves the batch incomplete for the next process to
// recover.
func (s *Server) watchBatch(b *Batch) {
	for i := range b.members {
		job := b.members[i].job
		go func(i int, job *Job) {
			select {
			case <-job.Done():
			case <-s.baseCtx.Done():
				return
			}
			if b.noteMemberDone(i, job) {
				s.noteBatchFinished(b)
			}
		}(i, job)
	}
}

// noteBatchFinished enters a completed batch into the eviction order and
// trims retained batches to StoreLimit (member jobs are evicted by their
// own lifecycle).
func (s *Server) noteBatchFinished(b *Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bfinished = append(s.bfinished, b.ID)
	for len(s.bfinished) > s.cfg.StoreLimit {
		id := s.bfinished[0]
		s.bfinished = s.bfinished[1:]
		delete(s.batches, id)
	}
}

// recoverBatches rebuilds Batch objects from recovered member records
// (grouped by their Batch field), after recoverJobs has rebuilt the jobs
// themselves: terminal members re-serve, incomplete ones are already
// re-enqueued, and a dedup member whose target was evicted is dropped
// from the membership. Runs before any worker or handler, like the rest
// of recovery.
func (s *Server) recoverBatches(recs []RecoveredJob) {
	var order []string
	grouped := make(map[string][]JobRecord)
	for _, rj := range recs {
		r := rj.Record
		if r.Batch == "" {
			continue
		}
		if _, ok := grouped[r.Batch]; !ok {
			order = append(order, r.Batch)
		}
		grouped[r.Batch] = append(grouped[r.Batch], r)
	}
	for _, id := range order {
		var n uint64
		if _, err := fmt.Sscanf(id, "b%06d", &n); err == nil && n > s.bseq {
			s.bseq = n
		}
		recs := grouped[id]
		tenant := DefaultTenant
		var members []batchMember
		for _, r := range recs {
			if r.Req.Tenant != "" {
				tenant = r.Req.Tenant
			}
			j := s.jobs[r.ID]
			if j == nil {
				continue // evicted dedup target; the member's result is gone
			}
			members = append(members, batchMember{job: j, dedup: r.Dedup})
		}
		if len(members) == 0 {
			continue
		}
		b := newBatch(id, tenant, members)
		if !recs[0].CreatedAt.IsZero() {
			b.created = recs[0].CreatedAt
		}
		s.batches[id] = b
		s.watchBatch(b)
		s.log.Info("batch recovered", "batch", id, "tenant", tenant, "members", len(members))
	}
}

func (s *Server) getBatch(id string) *Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[id]
}

// decodeBatch turns a POST /v1/batches body into resolved specs without
// starting anything: the strict decode, each item merged over the shared
// defaults, and buildSpec under maxBudget, with at most maxItems items.
// headerTenant is the X-Digamma-Tenant header. Every error wraps
// errBadRequest.
func decodeBatch(body io.Reader, headerTenant string, maxBudget, maxItems int) ([]*searchSpec, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w body: %w", errBadRequest, err)
	}
	switch {
	case len(req.Items) == 0:
		return nil, fmt.Errorf("%w: batch needs at least one item", errBadRequest)
	case len(req.Items) > maxItems:
		return nil, fmt.Errorf("%w: batch has %d items, this server caps batches at %d", errBadRequest, len(req.Items), maxItems)
	}
	// One batch, one tenant: items cannot submit on another tenant's
	// behalf.
	tenant := cmp.Or(req.Tenant, headerTenant, req.Defaults.Tenant)
	specs := make([]*searchSpec, len(req.Items))
	for i, item := range req.Items {
		merged := mergeRequest(req.Defaults, item)
		merged.Tenant = tenant
		spec, err := buildSpec(merged, maxBudget)
		if err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	// A batch is at most MaxBatchItems inline workloads; 16 MiB bounds the
	// decode the same way 4 MiB bounds a single submit.
	specs, err := decodeBatch(http.MaxBytesReader(w, r.Body, 16<<20), r.Header.Get(TenantHeader),
		s.cfg.MaxBudget, s.cfg.MaxBatchItems)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b, err := s.submitBatch(specs)
	if err != nil {
		s.writeSubmitError(w, specs[0].req.Tenant, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.batchStatus(b, false))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	b := s.getBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, errors.New("no such batch"))
		return
	}
	// ?wait= long-polls for whole-batch completion with the same cap and
	// 200-on-expiry semantics as the job endpoint.
	if !s.waitFor(w, r, b.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, s.batchStatus(b, true))
}

// handleBatchCancel cancels every non-terminal, non-dedup member (dedup
// members are other requests' jobs — the batch only references them).
func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b := s.getBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, errors.New("no such batch"))
		return
	}
	b.mu.Lock()
	members := append([]batchMember(nil), b.members...)
	b.mu.Unlock()
	for _, m := range members {
		if !m.dedup {
			s.cancelJob(m.job)
		}
	}
	writeJSON(w, http.StatusOK, s.batchStatus(b, false))
}

// handleBatchEvents streams the batch's member-completion events as SSE
// until the "done" event.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b := s.getBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, errors.New("no such batch"))
		return
	}
	streamSSE(w, r, s.baseCtx.Done(), b.Subscribe, map[string]string{"error": "server shutting down"})
}
