package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"digamma/internal/obs"
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

// submitBatch fans N resolved specs (all one tenant) into the job
// machinery as a single unit: one dedup pass, one admission check for the
// whole batch, one WAL frame with one fsync, then the member enqueues —
// the amortization that makes a K-item sweep cheaper than K independent
// submits. Every spec must carry the same tenant (the handler enforces
// it).
func (s *Server) submitBatch(specs []*searchSpec) (*Batch, error) {
	s.submitted.Add(uint64(len(specs)))
	if s.draining.Load() {
		s.rejected.Add(1)
		return nil, errClosed
	}
	tenant := specs[0].req.Tenant

	s.mu.Lock()
	// Resolution pass: dedup each item against live/done jobs and against
	// earlier items in this same batch (two identical items share one
	// job — the later one resolves to the earlier's index, its job filled
	// in after creation), then admit the fresh remainder in one check.
	members := make([]batchMember, len(specs))
	fresh := make([]int, 0, len(specs))    // indexes needing a new job
	dupOf := make(map[int]int, len(specs)) // later item → earlier fresh item
	firstAt := make(map[string]int, len(specs))
	freshBudget := 0
	for i, spec := range specs {
		if j, ok := firstAt[spec.hash]; ok {
			dupOf[i] = j
			s.dedupHits.Add(1)
			continue
		}
		if prev, ok := s.byHash[spec.hash]; ok {
			if st := prev.State(); st != StateFailed && st != StateCancelled && st != StateDegraded {
				members[i] = batchMember{job: prev, dedup: true}
				firstAt[spec.hash] = i
				s.dedupHits.Add(1)
				continue
			}
		}
		firstAt[spec.hash] = i
		fresh = append(fresh, i)
		freshBudget += spec.req.Budget
	}
	if err := s.sched.admit(tenant, len(fresh), freshBudget); err != nil {
		s.mu.Unlock()
		s.rejected.Add(1)
		if errors.Is(err, errTenantCap) {
			s.tenantStats.addRejection(tenant)
		}
		return nil, err
	}
	s.bseq++
	batchID := fmt.Sprintf("b%06d", s.bseq)
	now := time.Now()
	for _, i := range fresh {
		s.seq++
		job := newJob(fmt.Sprintf("j%06d", s.seq), specs[i])
		job.trace = s.newTracer()
		members[i] = batchMember{job: job}
	}
	for i, j := range dupOf {
		members[i] = batchMember{job: members[j].job, dedup: true}
	}
	// One WAL frame for the whole batch: same ordering contract as the
	// single-job path (admission before the append, publication after),
	// one fsync instead of len(fresh).
	rec := BatchRecord{ID: batchID, Tenant: tenant, CreatedAt: now}
	for i, m := range members {
		rec.Members = append(rec.Members, JobRecord{
			ID: m.job.ID, Hash: m.job.Hash, CreatedAt: now, Req: specs[i].req,
			Batch: batchID, BatchIndex: i, Dedup: m.dedup,
		})
	}
	var walJob *Job // first fresh member's tracer times the shared append
	if len(fresh) > 0 {
		walJob = members[fresh[0]].job
	}
	var t0 time.Duration
	if walJob != nil {
		t0 = walJob.trace.Now()
	}
	err := s.store.LogBatch(rec)
	if walJob != nil {
		s.recordIO(walJob, obs.IOWALAppend, t0)
	}
	if err != nil {
		s.seq -= uint64(len(fresh))
		s.bseq--
		s.mu.Unlock()
		s.storeErrors.Add(1)
		s.rejected.Add(1)
		return nil, fmt.Errorf("persisting batch: %w", err)
	}
	// Admission passed under s.mu and all queue growth happens under s.mu,
	// so these enqueues can only fail on a racing Close/Drain — in which
	// case the IDs are burned (they are in the WAL; the next process
	// recovers them) exactly like the single-job path.
	for _, i := range fresh {
		if !s.sched.enqueue(members[i].job, false) {
			s.mu.Unlock()
			s.rejected.Add(1)
			return nil, errClosed
		}
	}
	for _, i := range fresh {
		job := members[i].job
		s.jobs[job.ID] = job
		s.byHash[job.Hash] = job
	}
	b := newBatch(batchID, tenant, members)
	s.batches[batchID] = b
	s.mu.Unlock()

	s.watchBatch(b)
	s.log.Info("batch accepted", "batch", batchID, "tenant", tenant,
		"items", len(members), "fresh", len(fresh), "dedup", len(members)-len(fresh))
	return b, nil
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

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	// A batch is at most MaxBatchItems inline workloads; 16 MiB bounds the
	// decode the same way 4 MiB bounds a single submit.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	if req.Tenant == "" {
		req.Tenant = req.Defaults.Tenant
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one item"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d items, this server caps batches at %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	specs := make([]*searchSpec, len(req.Items))
	for i, item := range req.Items {
		merged := mergeRequest(req.Defaults, item)
		// One batch, one tenant: items cannot submit on another tenant's
		// behalf.
		merged.Tenant = req.Tenant
		spec, err := buildSpec(merged, s.cfg.MaxBudget)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
			return
		}
		specs[i] = spec
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

// handleBatchEvents streams the batch's member-completion events as SSE:
// history replays first, then live events until the "done" event or
// client disconnect. Mirrors the per-job stream.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b := s.getBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, errors.New("no such batch"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, ch, unsub := b.Subscribe()
	defer unsub()
	for _, ev := range replay {
		if done := writeBatchSSE(w, ev); done {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			fmt.Fprintf(w, "event: error\ndata: {\"error\":\"server shutting down\"}\n\n")
			fl.Flush()
			return
		case ev := <-ch:
			done := writeBatchSSE(w, ev)
			fl.Flush()
			if done {
				return
			}
		}
	}
}

// writeBatchSSE emits one batch event frame, reporting whether it was the
// terminal "done" event.
func writeBatchSSE(w http.ResponseWriter, ev BatchEvent) bool {
	payload, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, payload)
	return ev.Type == "done"
}
