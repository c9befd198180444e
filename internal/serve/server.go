package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digamma"
	"digamma/internal/cost"
	"digamma/internal/faults"
	"digamma/internal/obs"
	"digamma/internal/report"
	"digamma/internal/workload"
)

// Config sizes the service.
type Config struct {
	// Workers sizes the job worker pool — how many searches run
	// concurrently (each search additionally parallelizes its own
	// evaluations per its request's Workers option). 0 = GOMAXPROCS.
	Workers int
	// DistWorkers lists digammad -worker addresses; eligible island
	// searches shard across them (see docs/dist-protocol.md). Deployment
	// config, not a request field: results are bit-identical with or
	// without it, so it is deliberately excluded from the dedup request
	// hash — a cached local result answers a distributed run of the same
	// spec and vice versa. Empty = every search runs in-process.
	DistWorkers []string
	// QueueDepth bounds the number of jobs waiting for a worker; submits
	// beyond it are rejected with 503 rather than queued unboundedly.
	// 0 = 256.
	QueueDepth int
	// StoreLimit caps retained terminal jobs; the oldest-finished are
	// evicted (and stop serving dedup hits). 0 = 1024.
	StoreLimit int
	// MaxBudget caps a request's sampling budget (HTTP 400 above it), so
	// a handful of huge-budget submissions cannot occupy every worker
	// indefinitely. 0 = 1,000,000 (25× the paper's 40K protocol).
	MaxBudget int
	// Store persists accepted jobs, results and checkpoints so a crash or
	// redeploy loses no work (see Store). nil = no durability — the
	// in-memory-only behaviour of earlier trees.
	Store Store
	// CheckpointEvery, when > 0 with a Store configured, checkpoints every
	// running search every that-many generations (and at the drain
	// boundary), so recovery resumes mid-search instead of restarting.
	CheckpointEvery int
	// JobDeadline, when > 0, bounds each job's search wall-clock. A job
	// that exceeds it finishes as "degraded" carrying the best design
	// point found in time — a partial result, excluded from dedup.
	JobDeadline time.Duration
	// Analysis is the server's shared analysis tier: every job's search
	// reads and feeds it, so near-duplicate requests recover per-layer
	// cost-model analyses computed by earlier jobs. Pure cache sharing —
	// results stay bit-identical to a cold search. Pass a disk-backed
	// store (digamma.OpenAnalysisStore) to keep the warm tier across
	// restarts. nil = a fresh memory-only store, unless NoSharedAnalysis.
	Analysis *digamma.AnalysisStore
	// NoSharedAnalysis disables the shared analysis tier entirely: each
	// job then caches analyses only within its own search.
	NoSharedAnalysis bool
	// Faults arms the deterministic fault-injection harness (tests only;
	// nil in production). Points: "worker.run" plus the Store points.
	Faults *faults.Injector
	// TenantWeights assigns deficit-round-robin weights per tenant name
	// (see scheduler): a weight-3 tenant is dispatched three eval-quanta
	// per rotation for every one a weight-1 tenant gets. Tenants absent
	// from the map weigh 1, so the empty map is exact fair sharing.
	TenantWeights map[string]int
	// TenantJobCap bounds one tenant's queued+running jobs; a submit past
	// it gets 429 with Retry-After while the service still has global
	// headroom. 0 = unlimited (legacy behaviour).
	TenantJobCap int
	// TenantJobCaps overrides TenantJobCap for specific tenants. An
	// override wins even at 0 (that tenant becomes unlimited while the
	// default keeps binding everyone else).
	TenantJobCaps map[string]int
	// TenantBudgetCap bounds one tenant's outstanding evaluation budget —
	// the summed sampling budgets of its queued and running jobs (≈
	// in-flight evals). 0 = unlimited.
	TenantBudgetCap int
	// TenantBudgetCaps overrides TenantBudgetCap per tenant, with the same
	// override-wins-even-at-0 rule as TenantJobCaps.
	TenantBudgetCaps map[string]int
	// SchedQuantum is the evals-per-weight-unit replenished each
	// scheduling rotation (the fairness granularity: a saturating tenant
	// can delay another by at most one rotation of quanta). 0 = 2000.
	SchedQuantum int
	// WaitCap caps ?wait= long-polls on job and batch status endpoints so
	// a client typo cannot pin a handler goroutine indefinitely; an
	// expired window returns the current (possibly non-terminal) status
	// with 200. 0 = 30s.
	WaitCap time.Duration
	// MaxBatchItems caps POST /v1/batches item counts (400 above it).
	// 0 = 256.
	MaxBatchItems int
	// MaxTenantSeries caps the distinct tenant label values the /metrics
	// exposition will mint; tenants beyond the cap aggregate into the
	// "_overflow" label, so tenant-name churn cannot grow the scrape
	// without bound. 0 = 32.
	MaxTenantSeries int
	// TraceSpans sizes each job's flight recorder (the per-job bounded
	// span ring exported via /v1/jobs/{id}/trace and summarized by
	// /v1/jobs/{id}/report). 0 = obs.DefaultSpanCap; negative disables
	// per-job tracing entirely (jobs then run the engine's zero-cost
	// disabled path and serve 404 on trace/report).
	TraceSpans int
	// Log receives the server's structured logs (job lifecycle, drain,
	// recovery, store errors). nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.StoreLimit <= 0 {
		c.StoreLimit = 1024
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 1_000_000
	}
	if c.SchedQuantum <= 0 {
		c.SchedQuantum = defaultQuantum
	}
	if c.WaitCap <= 0 {
		c.WaitCap = 30 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxTenantSeries <= 0 {
		c.MaxTenantSeries = 32
	}
	return c
}

// Server is the digammad service: job store, dedup index, bounded queue,
// worker pool and HTTP handlers. Create with New, expose via Handler,
// shut down with Close.
//
// The queue is the tenant-keyed deficit-round-robin scheduler (see
// scheduler in sched.go) rather than a buffered channel so a job
// cancelled while queued frees its slot immediately and tenants share
// workers by weight instead of head-of-line order. Lock order where held
// together: mu → sched.mu → Job.mu.
type Server struct {
	cfg Config

	sched *scheduler

	mu        sync.Mutex
	jobs      map[string]*Job
	byHash    map[string]*Job
	finished  []string // terminal job IDs in finish order, for eviction
	seq       uint64
	batches   map[string]*Batch
	bfinished []string // terminal batch IDs in finish order, for eviction
	bseq      uint64

	store    Store
	analysis *digamma.AnalysisStore // shared evaluation tier; nil when disabled
	draining atomic.Bool

	started            time.Time
	submitted          atomic.Uint64
	dedupHits          atomic.Uint64
	rejected           atomic.Uint64
	cacheHits          atomic.Uint64
	cacheMisses        atomic.Uint64
	deltaEvals         atomic.Uint64
	layersReused       atomic.Uint64
	poolGets           atomic.Uint64
	poolReuses         atomic.Uint64
	jobsRecovered      atomic.Uint64
	checkpointsWritten atomic.Uint64
	panicsRecovered    atomic.Uint64
	jobsDegraded       atomic.Uint64
	storeErrors        atomic.Uint64

	latMu     sync.Mutex
	latencies []float64 // ring of recent completed-search wall-clock seconds
	latHead   int       // next slot to overwrite once the ring is full

	// Cumulative histograms behind /metrics, keyed by their one label
	// value. The key sets are fixed at construction (every backend, every
	// engine phase, every store op), so scrapes always see the same
	// series — no label churn as traffic shifts.
	latHist   map[string]*obs.Histogram // by cost-model backend ("fidelity")
	phaseHist map[string]*obs.Histogram // by engine phase
	ioHist    map[string]*obs.Histogram // by store I/O op

	// tenantStats is the bounded-cardinality per-tenant metrics registry
	// (rejections, completed evals, queue-wait histogram by tenant label).
	tenantStats *tenantRegistry

	log *slog.Logger

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a server, replays the store's recovery records (persisted
// results re-serve status and dedup hits; incomplete jobs re-enqueue,
// resuming from their latest checkpoint) and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		sched: newScheduler(cfg.QueueDepth,
			tenantCap{def: cfg.TenantJobCap, per: cfg.TenantJobCaps},
			tenantCap{def: cfg.TenantBudgetCap, per: cfg.TenantBudgetCaps},
			cfg.SchedQuantum, cfg.TenantWeights),
		store:   cfg.Store,
		jobs:    make(map[string]*Job),
		byHash:  make(map[string]*Job),
		batches: make(map[string]*Batch),
		started: time.Now(),
		log:     cfg.Log,
		baseCtx: ctx,
		stop:    stop,
	}
	s.tenantStats = newTenantRegistry(cfg.MaxTenantSeries, cfg.TenantWeights)
	if s.store == nil {
		s.store = nullStore{}
	}
	if s.analysis = cfg.Analysis; s.analysis == nil && !cfg.NoSharedAnalysis {
		s.analysis = digamma.NewAnalysisStore()
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.latHist = make(map[string]*obs.Histogram, len(cost.BackendNames))
	for _, b := range cost.BackendNames {
		s.latHist[b] = obs.NewHistogram(obs.LatencyBuckets())
	}
	s.phaseHist = make(map[string]*obs.Histogram)
	for _, p := range []string{obs.PhaseInit, obs.PhaseBreed, obs.PhaseEvaluate, obs.PhaseMigrate, obs.PhaseRescore, obs.PhaseCkpt, obs.PhaseFinalize} {
		s.phaseHist[p] = obs.NewHistogram(obs.PhaseBuckets())
	}
	s.ioHist = make(map[string]*obs.Histogram)
	for _, op := range []string{obs.IOWALAppend, obs.IOCkptSave, obs.IOResult, obs.IOReport} {
		s.ioHist[op] = obs.NewHistogram(obs.IOBuckets())
	}
	if err := s.recoverJobs(); err != nil {
		stop()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJobs rebuilds the job store from persisted state before any
// worker or handler runs (so no locking is needed): terminal jobs come
// back with their persisted status, result report and dedup entry;
// incomplete jobs re-enter the queue carrying their latest checkpoint.
func (s *Server) recoverJobs() error {
	recs, err := s.store.Recover()
	if err != nil {
		return fmt.Errorf("serve: recovering store: %w", err)
	}
	for _, rj := range recs {
		if rj.Record.Dedup {
			// A batch member deduplicated onto a job accepted earlier: no
			// job of its own to rebuild (recoverBatches resolves the
			// reference against the target's record).
			continue
		}
		spec, err := buildSpec(rj.Record.Req, s.cfg.MaxBudget)
		if err != nil {
			// The request is no longer valid under this server's limits or
			// model zoo; recovery drops it rather than wedging startup.
			continue
		}
		job := newJob(rj.Record.ID, spec)
		job.recovered = true
		if !rj.Record.CreatedAt.IsZero() {
			job.created = rj.Record.CreatedAt
		}
		var n uint64
		if _, err := fmt.Sscanf(rj.Record.ID, "j%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[job.ID] = job
		if rj.Terminal != nil {
			job.finish(*rj.Terminal, nil)
			s.finished = append(s.finished, job.ID)
			// Only full, successful results serve dedup hits again;
			// degraded results are partial, and failed/cancelled never
			// blocked a retry.
			if rj.Terminal.State == StateDone {
				s.byHash[job.Hash] = job
			}
		} else {
			// Only re-run jobs get a flight recorder: a terminal-restored
			// job's recorder died with the process (its persisted report
			// still serves; /trace reports the recorder as gone).
			job.trace = s.newTracer()
			job.resume = rj.Resume
			s.byHash[job.Hash] = job
			// force: the WAL promised these jobs; capacity was checked when
			// they were first accepted.
			s.sched.enqueue(job, true)
			s.jobsRecovered.Add(1)
			s.jobLog(job).Info("job recovered", "resuming", job.resume != nil)
		}
	}
	s.recoverBatches(recs)
	if n := len(recs); n > 0 {
		s.log.Info("store recovery complete", "records", n, "requeued", s.jobsRecovered.Load())
	}
	return nil
}

// newTracer builds one job's flight recorder per Config.TraceSpans
// (nil = tracing disabled: the engine runs its zero-cost path).
func (s *Server) newTracer() *obs.Tracer {
	if s.cfg.TraceSpans < 0 {
		return nil
	}
	return obs.NewTracer(s.cfg.TraceSpans)
}

// jobLog returns the job-scoped logger: every line carries the job id and
// canonical request hash, so one grep correlates a request with its
// search.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("job", j.ID, "hash", j.Hash)
}

// Close cancels every running search and stops the workers, then releases
// the store. Queued and in-flight jobs are left non-terminal — with a
// durable store they are exactly what the next process recovers, so from
// the store's perspective Close and a crash are the same event (the
// in-process chaos tests rely on that). For a clean, checkpointing
// shutdown use Drain.
func (s *Server) Close() {
	s.sched.close()
	s.stop()
	s.wg.Wait()
	_ = s.store.Close()
}

// Drain gracefully stops the server: new submissions are rejected, every
// running search is cancelled at its next generation boundary — emitting a
// final checkpoint through the store — queued and in-flight jobs stay
// non-terminal in the WAL for the next process to recover, and the store
// is flushed and closed. Returns ctx.Err() if the workers outlive the
// context; the store is closed either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true) // /readyz flips to 503 from here on
	s.log.Info("drain started", "queue_depth", s.queueDepth())
	s.sched.close()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain cut short: %w", ctx.Err())
	}
	if cerr := s.store.Close(); err == nil && cerr != nil {
		err = cerr
	}
	s.log.Info("drain finished", "err", err)
	return err
}

// queueDepth snapshots the number of jobs waiting for a worker.
func (s *Server) queueDepth() int {
	return s.sched.depth()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.sched.dequeue()
		if job == nil {
			return
		}
		if s.runJob(job) {
			// A drain left the job non-terminal: settle the accounting
			// here, as settle does for every terminal job.
			s.sched.release(job)
		}
	}
}

// runJob executes one search with cancellation, checkpointing and progress
// plumbed in, then settles its outcome. A drain or Close that interrupts
// the search leaves the job non-terminal and runJob reports it: the WAL
// still lists it as accepted-but-unfinished, so the next process recovers
// it — from its final checkpoint when checkpointing is on — instead of
// marking it cancelled.
func (s *Server) runJob(j *Job) (interrupted bool) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.setRunning(cancel) {
		return false // claimed by a cancel while queued, which settles it
	}
	s.tenantStats.observeQueueWait(j.Tenant, time.Since(j.created).Seconds())
	log := s.jobLog(j)
	log.Info("job running", "model", j.spec.model.Name, "budget", j.spec.req.Budget,
		"resuming", j.resume != nil)
	opts := j.spec.opts
	// The server's shared tier backs every job. Safe under dedup: pure
	// cache sharing is bit-identical, and the trajectory-changing warm
	// start rides in via the spec (and its hash) instead.
	opts.SharedCache = s.analysis
	// Distributed placement is likewise deployment config: eligible island
	// runs shard across the configured worker pool, ineligible ones (and
	// handshake failures) fall back in-process — bit-identical either way,
	// which is what keeps it out of the request hash.
	opts.DistWorkers = s.cfg.DistWorkers
	opts.Trace = j.trace
	opts.OnProgress = func(p digamma.Progress) {
		j.cacheHits.Store(p.CacheHits)
		j.cacheMisses.Store(p.CacheMisses)
		j.deltaEvals.Store(uint64(p.DeltaEvals))
		j.layersReused.Store(uint64(p.LayersReused))
		j.poolGets.Store(p.PoolGets)
		j.poolReuses.Store(p.PoolReuses)
		j.Publish(Event{
			Type:          "progress",
			Generation:    p.Generation,
			Samples:       p.Samples,
			Budget:        p.Budget,
			BestFitness:   p.BestFitness,
			CacheHitRate:  hitRate(p.CacheHits, p.CacheMisses),
			DeltaEvals:    p.DeltaEvals,
			LayersReused:  p.LayersReused,
			PoolReuseRate: hitRate(p.PoolReuses, p.PoolGets-p.PoolReuses),
		})
	}
	if _, inMemoryOnly := s.store.(nullStore); !inMemoryOnly && s.cfg.CheckpointEvery > 0 {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.OnCheckpoint = func(ck *digamma.Checkpoint) {
			t0 := j.trace.Now()
			err := s.store.SaveCheckpoint(j.ID, ck)
			s.recordIO(j.trace, obs.IOCkptSave, t0)
			if err != nil {
				s.storeErrors.Add(1)
				log.Warn("checkpoint write failed", "err", err)
				return
			}
			s.checkpointsWritten.Add(1)
		}
	}
	opts.Resume = j.resume
	runCtx := ctx
	if s.cfg.JobDeadline > 0 {
		// BestEffort turns a deadline expiry into a usable partial result
		// (finished as StateDegraded below) instead of a bare error.
		opts.BestEffort = true
		var cancelDeadline context.CancelFunc
		runCtx, cancelDeadline = context.WithTimeout(ctx, s.cfg.JobDeadline)
		defer cancelDeadline()
	}
	begin := time.Now()
	ev, err := s.searchGuarded(runCtx, j, opts)
	if err != nil && opts.Resume != nil && runCtx.Err() == nil {
		// A checkpoint that no longer restores (engine knobs changed across
		// the restart, corrupt blob, ...) should not fail the job outright;
		// fall back to a fresh search of the same spec.
		opts.Resume = nil
		ev, err = s.searchGuarded(runCtx, j, opts)
	}
	finished := time.Now()
	var state State
	switch {
	case err == nil:
		state = StateDone
	case s.baseCtx.Err() != nil:
		// Drain/Close interrupted the search: leave the job non-terminal so
		// a durable store recovers it on restart.
		log.Info("job interrupted by shutdown, left recoverable")
		return true
	case ev != nil && errors.Is(err, context.DeadlineExceeded):
		state = StateDegraded
		s.jobsDegraded.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state, ev = StateCancelled, nil
	default:
		state, ev = StateFailed, nil
	}
	wall := finished.Sub(begin).Seconds()
	if ev != nil {
		s.recordLatency(wall, j.spec.req.Fidelity)
		s.foldTelemetry(j)
		s.tenantStats.addEvals(j.Tenant, uint64(j.cost))
	}
	log.Info("job finished", "state", string(state), "wall_seconds", wall, "err", err)
	s.settle(j, state, ev, err, finished)
	return false
}

// settle makes a job terminal: every outcome of a run and every cancel
// while queued takes this one path. The state becomes visible last, so a
// client that sees it finds the terminal record written, the run report
// served and the tenant's budget free. finished is when the search
// returned (or the cancel landed); the terminal record carries it. Store
// failures are counted, not fatal: the in-memory state stays
// authoritative for this process.
func (s *Server) settle(j *Job, state State, ev *digamma.Evaluation, err error, finished time.Time) {
	rec := TerminalRecord{ID: j.ID, Hash: j.Hash, State: state, FinishedAt: finished}
	if err != nil {
		rec.Error = err.Error()
	}
	if ev != nil {
		rec.Result = report.FromEvaluation(ev)
	}
	t0 := j.trace.Now()
	werr := s.store.SaveTerminal(rec)
	s.recordIO(j.trace, obs.IOResult, t0)
	if werr != nil {
		s.storeErrors.Add(1)
		s.jobLog(j).Warn("result write failed", "err", werr)
	}
	s.noteFinished(j)
	s.finishReport(j, state, finished)
	s.sched.release(j)
	j.finish(rec, ev)
}

// recordIO records one store write into a job's trace and the
// /metrics histogram for its op.
func (s *Server) recordIO(tr *obs.Tracer, op string, t0 time.Duration) {
	if tr == nil {
		return
	}
	dur := tr.Now() - t0
	tr.Record(obs.Span{Name: op, Cat: obs.CatIO, Island: -1, Gen: -1, Start: t0, Dur: dur})
	if h := s.ioHist[op]; h != nil {
		h.Observe(dur.Seconds())
	}
}

// finishReport closes out a settling job's observability: folds its phase
// spans into the /metrics histograms, builds the structured run report,
// attaches it for GET /v1/jobs/{id}/report and persists it next to the
// result. Runs after the terminal record's write so the result_save span
// is in the report's I/O table.
func (s *Server) finishReport(j *Job, state State, finished time.Time) {
	if j.trace == nil {
		return
	}
	for _, sp := range j.trace.Snapshot().Spans {
		if sp.Cat != obs.CatPhase {
			continue
		}
		if h := s.phaseHist[sp.Name]; h != nil {
			h.Observe(sp.Dur.Seconds())
		}
	}
	rep := s.buildReport(j, state, finished)
	j.setReport(rep)
	data, err := json.Marshal(rep)
	if err == nil {
		t0 := j.trace.Now()
		err = s.store.SaveReport(j.ID, data)
		s.recordIO(j.trace, obs.IOReport, t0)
	}
	if err != nil {
		s.storeErrors.Add(1)
		s.jobLog(j).Warn("report write failed", "err", err)
	}
}

// searchGuarded runs the search behind the fault-injection harness and a
// panic barrier: a panicking worker — injected or real — fails only its
// own job, never the process.
func (s *Server) searchGuarded(ctx context.Context, j *Job, opts digamma.Options) (ev *digamma.Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			ev, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if err := s.cfg.Faults.Hit("worker.run"); err != nil {
		return nil, err
	}
	return digamma.OptimizeContext(ctx, j.spec.model, j.spec.platform, opts)
}

// foldTelemetry folds a finishing job's evaluation counters into the
// server-level aggregates served by /metrics.
func (s *Server) foldTelemetry(j *Job) {
	s.cacheHits.Add(j.cacheHits.Load())
	s.cacheMisses.Add(j.cacheMisses.Load())
	s.deltaEvals.Add(j.deltaEvals.Load())
	s.layersReused.Add(j.layersReused.Load())
	s.poolGets.Add(j.poolGets.Load())
	s.poolReuses.Add(j.poolReuses.Load())
}

// submit accepts one spec — a batch of one, without the batch. The bool
// reports a dedup hit.
func (s *Server) submit(spec *searchSpec) (*Job, bool, error) {
	members, _, err := s.accept([]*searchSpec{spec}, false)
	if err != nil {
		return nil, false, err
	}
	return members[0].job, members[0].dedup, nil
}

// accept is the one admission path: a plain submit (one spec) and a batch
// (N specs, all one tenant) both enter the job machinery here, as a
// single unit. Each item dedups against a live or fully completed job with
// the same canonical hash, or against an earlier item of the same request
// (failed, cancelled and degraded jobs don't block a retry — a degraded
// result is partial, so a resubmit deserves the full budget). The fresh
// remainder then takes one admission check, one WAL frame with one fsync,
// the enqueues and publication — the amortization that makes a K-item
// sweep cheaper than K submits. A plain submit that dedups returns
// without touching the WAL; a batch is always minted and logged, its dedup
// members as references.
//
// Ordering, all under s.mu: admission first (a rejected request must
// never reach the WAL), then the WAL append (once a client can observe an
// ID, a crash must not forget the job), then the enqueues and map
// publication. If a job were visible before it was enqueued, a concurrent
// identical submit could dedup onto a job whose enqueue then fails,
// handing out an ID that would 404 forever. All queue growth happens here
// under s.mu, so the scheduler's state can only shrink between the
// admission check and the enqueues — which therefore cannot fail for
// capacity, only for a racing Close/Drain.
func (s *Server) accept(specs []*searchSpec, batch bool) ([]batchMember, *Batch, error) {
	s.submitted.Add(uint64(len(specs)))
	if s.draining.Load() {
		s.rejected.Add(1)
		return nil, nil, errClosed
	}
	tenant := specs[0].req.Tenant
	s.mu.Lock()
	members := make([]batchMember, len(specs))
	firstAt := make(map[string]int, len(specs)) // hash → its first item
	var fresh []int                             // items needing a new job
	freshBudget := 0
	for i, spec := range specs {
		if _, ok := firstAt[spec.hash]; ok {
			// Shares the earlier item's job, filled in once it exists.
			members[i].dedup = true
			s.dedupHits.Add(1)
			continue
		}
		firstAt[spec.hash] = i
		if prev, ok := s.byHash[spec.hash]; ok {
			if st := prev.State(); st != StateFailed && st != StateCancelled && st != StateDegraded {
				members[i] = batchMember{job: prev, dedup: true}
				s.dedupHits.Add(1)
				continue
			}
		}
		fresh = append(fresh, i)
		freshBudget += spec.req.Budget
	}
	if !batch && len(fresh) == 0 {
		s.mu.Unlock()
		return members, nil, nil
	}
	if err := s.sched.admit(tenant, len(fresh), freshBudget); err != nil {
		s.mu.Unlock()
		s.rejected.Add(1)
		if errors.Is(err, errTenantCap) {
			s.tenantStats.addRejection(tenant)
		}
		return nil, nil, err
	}
	// IDs are minted past the sequences and taken only once the WAL holds
	// them, so a failed append leaves nothing to roll back.
	now := time.Now()
	for k, i := range fresh {
		job := newJob(fmt.Sprintf("j%06d", s.seq+uint64(k+1)), specs[i])
		job.created, job.trace = now, s.newTracer()
		members[i].job = job
	}
	var batchID string
	if batch {
		batchID = fmt.Sprintf("b%06d", s.bseq+1)
	}
	recs := make([]JobRecord, len(members))
	for i := range members {
		if members[i].job == nil {
			members[i].job = members[firstAt[specs[i].hash]].job
		}
		m := members[i]
		recs[i] = JobRecord{ID: m.job.ID, Hash: m.job.Hash, CreatedAt: now, Req: specs[i].req,
			Batch: batchID, BatchIndex: i, Dedup: m.dedup}
	}
	var tr *obs.Tracer // the first fresh job's recorder times the append
	if len(fresh) > 0 {
		tr = members[fresh[0]].job.trace
	}
	t0 := tr.Now()
	var err error
	if batch {
		err = s.store.LogBatch(BatchRecord{ID: batchID, Tenant: tenant, CreatedAt: now, Members: recs})
	} else {
		err = s.store.LogAccepted(recs[0])
	}
	s.recordIO(tr, obs.IOWALAppend, t0)
	if err != nil {
		s.mu.Unlock()
		s.storeErrors.Add(1)
		s.rejected.Add(1)
		return nil, nil, fmt.Errorf("persisting request: %w", err)
	}
	s.seq += uint64(len(fresh))
	for _, i := range fresh {
		if !s.sched.enqueue(members[i].job, false) {
			// The IDs are burned — they are in the WAL, and recovery after
			// the shutdown in progress will pick the jobs up.
			s.mu.Unlock()
			s.rejected.Add(1)
			return nil, nil, errClosed
		}
	}
	for _, i := range fresh {
		job := members[i].job
		s.jobs[job.ID] = job
		s.byHash[job.Hash] = job
	}
	var b *Batch
	if batch {
		s.bseq++
		b = newBatch(batchID, tenant, members)
		s.batches[batchID] = b
	}
	s.mu.Unlock()
	if batch {
		s.watchBatch(b)
		s.log.Info("batch accepted", "batch", batchID, "tenant", tenant,
			"items", len(members), "fresh", len(fresh), "dedup", len(members)-len(fresh))
	} else {
		spec := specs[0]
		s.jobLog(members[0].job).Info("job accepted", "model", spec.model.Name, "tenant", tenant,
			"budget", spec.req.Budget, "seed", spec.req.Seed, "fidelity", spec.req.Fidelity)
	}
	return members, b, nil
}

// noteFinished enters a terminal job into the eviction order and trims
// the store to StoreLimit.
func (s *Server) noteFinished(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.StoreLimit {
		id := s.finished[0]
		s.finished = s.finished[1:]
		if old, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			if s.byHash[old.Hash] == old {
				delete(s.byHash, old.Hash)
			}
		}
	}
}

func (s *Server) get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Inline workloads are at most a few thousand layers; anything near
	// the limit is abuse, and an unbounded decode would buffer it all.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	spec, err := buildSpec(req, s.cfg.MaxBudget)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, dedup, err := s.submit(spec)
	if err != nil {
		s.writeSubmitError(w, spec.req.Tenant, err)
		return
	}
	st := job.Status(dedup && job.State() == StateDone)
	st.Deduplicated = dedup
	code := http.StatusAccepted
	if dedup {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// writeSubmitError maps a submit failure onto its admission-control HTTP
// status: a tenant over its own cap gets 429 with a Retry-After estimated
// from that tenant's live load (the service still has headroom, so backing
// off is the right client move); a full queue or a draining server stays
// 503, exactly the single-tenant behaviour earlier trees shipped.
func (s *Server) writeSubmitError(w http.ResponseWriter, tenant string, err error) {
	if errors.Is(err, errTenantCap) {
		retry := s.sched.tenantLoad(tenant)
		if retry < 1 {
			retry = 1
		} else if retry > 30 {
			retry = 30
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// waitFor blocks until done closes, the request's ?wait= window (capped at
// Config.WaitCap) expires, or the client disconnects. Reports a bad
// duration via a 400 and false; every other outcome returns true — an
// expired window is not an error, the caller serves the current status
// with 200.
func (s *Server) waitFor(w http.ResponseWriter, r *http.Request, done <-chan struct{}) bool {
	d := r.URL.Query().Get("wait")
	if d == "" {
		return true
	}
	dur, err := time.ParseDuration(d)
	if err != nil || dur < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", d))
		return false
	}
	// The cap exists so a client typo ("wait=1h") cannot pin a handler
	// goroutine for the server's lifetime.
	if dur > s.cfg.WaitCap {
		dur = s.cfg.WaitCap
	}
	t := time.NewTimer(dur)
	select {
	case <-done:
	case <-t.C:
	case <-r.Context().Done():
	}
	t.Stop()
	return true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	// ?wait=<duration> long-polls: the response is held until the job is
	// terminal or the window expires, then carries the usual status (200
	// with the current, possibly non-terminal state — never an opaque
	// timeout). One round-trip replaces a poll loop — warm-started
	// near-duplicate searches finish in well under a millisecond, where
	// any fixed poll interval would dominate the observed latency.
	if !s.waitFor(w, r, j.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, j.Status(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.Status(false))
}

// cancelJob requests one job's cancellation (shared by the job DELETE
// handler and batch-wide DELETE). A job claimed while queued is settled
// here and now — its record written, its queue slot and tenant budget
// freed — rather than when a worker eventually meets it.
func (s *Server) cancelJob(j *Job) {
	if j.requestCancel() {
		s.settle(j, StateCancelled, nil, errors.New("cancelled while queued"), time.Now())
	}
}

// handleEvents streams a job's progress as Server-Sent Events until a
// terminal state event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	streamSSE(w, r, s.baseCtx.Done(), j.Subscribe, Event{Type: "error", Error: "server shutting down"})
}

// streamSSE serves one event feed as Server-Sent Events, the loop behind
// the job and batch streams: the full history replays first, then live
// events follow until one ends the stream, the client disconnects or a
// write fails. On shutdown the stream ends with an "error" frame carrying
// shutdownData, so the client can tell a server-side stop from its
// subject finishing (a job left non-terminal may be recovered and resumed
// after a restart).
func streamSSE[E interface{ frame() (string, bool) }](w http.ResponseWriter, r *http.Request,
	shutdown <-chan struct{}, subscribe func() ([]E, chan E, func()), shutdownData any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// send writes one frame, reporting whether the stream goes on.
	send := func(ev E) bool {
		name, last := ev.frame()
		return writeSSE(w, name, ev) == nil && !last
	}
	replay, ch, unsub := subscribe()
	defer unsub()
	for _, ev := range replay {
		if !send(ev) {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-shutdown:
			_ = writeSSE(w, "error", shutdownData) // the stream ends either way
			fl.Flush()
			return
		case ev := <-ch:
			more := send(ev)
			fl.Flush()
			if !more {
				return
			}
		}
	}
}

// writeSSE emits one event frame with v's JSON as its data, returning any
// write error (a disconnected client).
func writeSSE(w http.ResponseWriter, name string, v any) error {
	payload, _ := json.Marshal(v)
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, payload)
	return err
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name   string `json:"name"`
		Layers int    `json:"layers"`
		MACs   int64  `json:"macs"`
	}
	names := append(append([]string(nil), digamma.ModelNames...), workload.ExtendedModelNames...)
	out := make([]modelInfo, 0, len(names))
	for _, n := range names {
		m, err := digamma.LoadModel(n)
		if err != nil {
			continue
		}
		out = append(out, modelInfo{Name: n, Layers: len(m.Layers), MACs: m.MACs()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	type platformInfo struct {
		Name          string  `json:"name"`
		AreaBudgetMM2 float64 `json:"area_budget_mm2"`
	}
	writeJSON(w, http.StatusOK, map[string]any{"platforms": []platformInfo{
		{Name: "edge", AreaBudgetMM2: digamma.EdgePlatform().AreaBudgetMM2},
		{Name: "cloud", AreaBudgetMM2: digamma.CloudPlatform().AreaBudgetMM2},
	}})
}

// handleHealth is liveness: 200 as long as the process serves HTTP, with
// a snapshot of uptime, queue depth and the recent-latency window (p50/
// p95 over the ring recordLatency maintains). Readiness lives on /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	p50, p95, count := s.latencyQuantiles()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"uptime_seconds":     time.Since(s.started).Seconds(),
		"queue_depth":        s.queueDepth(),
		"workers":            s.cfg.Workers,
		"recent_latency_p50": p50,
		"recent_latency_p95": p95,
		"recent_searches":    count,
	})
}

// handleReady is readiness: 503 once Drain has started — the flag flips
// before the listener closes, so a load balancer stops routing new work
// while in-flight requests still complete.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
