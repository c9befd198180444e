// Package core implements DiGamma, the paper's domain-aware genetic
// algorithm for HW-Mapping co-optimization, together with GAMMA
// (ICCAD 2020) — the same engine restricted to the mapping space with a
// fixed hardware configuration — which the evaluation uses as the
// Mapping-opt baseline.
//
// Rather than perturbing the flat gene vector arbitrarily (the stdGA
// baseline), DiGamma applies the specialized operators of the paper's
// Fig. 4, each aware of which part of the design space it perturbs:
//
//	Crossover   — exchanges whole per-layer mapping blocks and HW genes
//	Reorder     — permutes a level's loop order (order space)
//	Grow/Aging  — adds/removes a hierarchy level (clustering space)
//	Mutate-Map  — re-tiles dimensions (divisor-biased) and re-targets the
//	              spatial dimension; co-affects derived buffers
//	Mutate-HW   — re-shapes/re-sizes the PE array under the area budget;
//	              co-affects derived buffers
//
// Buffer sizes are never genes: the co-opt framework allocates exactly
// the minimum requirement of the decoded mapping (the paper's buffer
// allocation strategy).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"digamma/internal/coopt"
	"digamma/internal/cost"
	"digamma/internal/obs"
	"digamma/internal/par"
	"digamma/internal/space"
)

// Config holds DiGamma's hyper-parameters. The paper tunes these with
// Bayesian optimization (footnote 3); the defaults here come from a coarse
// sweep recorded in EXPERIMENTS.md.
type Config struct {
	PopSize     int     // individuals per generation
	EliteFrac   float64 // fraction carried over unchanged
	CrossRate   float64 // probability of block crossover per child
	ReorderRate float64 // probability of a loop-order swap per child
	MutMapRate  float64 // probability of a mapping mutation per child
	MutHWRate   float64 // probability of an HW mutation per child
	GrowRate    float64 // probability of adding a hierarchy level
	AgeRate     float64 // probability of removing a hierarchy level
	MaxLevels   int     // clustering depth ceiling (paper: 3; at most cost.MaxLevels)
	DivisorBias float64 // chance tile mutations snap to divisors
	GreedyCross float64 // chance crossover picks per-layer blocks greedily
	SeedFrac    float64 // fraction of the initial population seeded conservatively
	Workers     int     // parallel evaluation workers (≤ 1 = serial; DefaultConfig: GOMAXPROCS); results are deterministic either way

	// Prune, when set, screens every bred candidate against its provable
	// fitness lower bound (coopt.Problem.FitnessBound) before full
	// analysis: a candidate whose bound already exceeds the incumbent
	// best fitness is admitted to the population carrying the bound as
	// its fitness (it is provably worse than the incumbent, so it can
	// never become the best) without paying for the full cost model.
	// Pruned candidates still consume sampling budget.
	//
	// Soundness: the reported best is always a fully-analyzed point, and
	// no candidate that could have beaten the incumbent at screening
	// time is ever pruned. Exactness: a run whose screened children
	// never breed — budget ≤ 2·PopSize − elites, i.e. one exploration
	// generation plus one screened generation — provably returns the
	// *same* final best as the unpruned run (TestPruneWindowSameBest
	// pins this on resnet18). Longer runs let bound-carrying candidates
	// into selection among already-beaten individuals, so their
	// trajectory (and possibly final best) can drift from the unpruned
	// run's while full-model evaluations drop 40–75%. Off by default:
	// the default path stays bit-identical to earlier trees.
	Prune bool

	// NoDelta disables the dirty-layer delta evaluation path: every bred
	// candidate is scored from scratch instead of cloning its breeding
	// parent's analyses for the layers the operators did not touch.
	// Results are bit-identical either way — the delta path reuses only
	// analyses whose inputs are provably unchanged and re-reduces in the
	// same order (TestDeltaBitIdentical pins this across knob
	// combinations) — so the switch exists for benchmarking the delta
	// speedup and as an escape hatch, not as a fidelity trade.
	NoDelta bool

	// FixedHW disables Mutate-HW, Grow and Aging, turning the engine into
	// the GAMMA mapper.
	FixedHW bool

	// CheckpointEvery, when > 0, emits a Checkpoint through
	// Engine.OnCheckpoint every that-many generations (and once more at
	// the cancellation boundary, so a drained search can resume where it
	// stopped). Checkpoints record RNG stream positions relative to the
	// engine's seed. 0 (the default) disables checkpointing entirely: the
	// generation loop's only extra work is a pair of predictable
	// branches, so the default hot path stays allocation-free and
	// bit-identical to earlier trees.
	CheckpointEvery int

	// BestEffort makes a cancelled or deadline-exceeded run return its
	// best-so-far partial Result alongside the ErrCancelled-wrapped error
	// (instead of the default nil result) — the serving layer's
	// "degraded" per-job deadline semantics. The partial result is the
	// state at the interrupting generation boundary, so it is exactly
	// what an equal-budget run would have returned.
	BestEffort bool

	// Islands splits the search into K semi-isolated populations stepped
	// in lockstep, exchanging elites over a deterministic ring every
	// MigrateEvery generations. ≤ 1 (the default) runs the classic
	// single-population engine — bit-identical to trees that predate the
	// island model. Each island owns a private RNG stream derived from
	// the master seed, so results are a pure function of
	// (Seed, Islands, MigrateEvery, Profiles) and never of Workers. The
	// sampling budget is split evenly across islands (remainder to the
	// first ones); K is clamped to the budget.
	Islands int
	// MigrateEvery is the ring-migration period in generations; 0 means
	// DefaultMigrateEvery. Ignored for single-island runs.
	MigrateEvery int
	// Profiles assigns per-island operator-rate profiles by name (see
	// ProfileByName): island i runs Profiles[i mod len(Profiles)]; empty
	// means every island runs the "default" profile (the base Config
	// as-is). Heterogeneous profiles — explore-heavy, exploit-heavy, and
	// the bound-fidelity "scout" — are the island model's diversity
	// lever. If every island resolves to a scout, island 0 falls back to
	// "default" so the run always has a full-fidelity population.
	Profiles []string

	// Warm seeds the first full-fidelity island's initial population with
	// these genomes (repaired and budget-clamped first), replacing an
	// equal number of its random draws — the cross-request warm-start
	// path: the facade adapts the nearest prior result from the shared
	// analysis store into a genome and plants it here. Empty (the
	// default) changes nothing; a non-empty set changes the search
	// trajectory, so serving layers must hash the knob into their dedup
	// keys. Ignored on resumed runs (the checkpoint's populations already
	// embody whatever seeding the original run had).
	Warm []space.Genome

	// Target, when > 0, ends the search at the first generation boundary
	// where the global best is valid with Fitness ≤ Target — time-to-
	// target mode, the serving layer's lever for turning warm-started
	// near-duplicate searches into wall-clock wins: a search seeded at or
	// near the target stops after its first generations instead of
	// spending the whole budget polishing. Deterministic — the stop
	// depends only on the search trajectory, never on wall-clock or
	// Workers — but budget-truncating, so serving layers must hash the
	// knob into their dedup keys. 0 (the default) always runs the full
	// budget.
	Target float64
}

// DefaultMigrateEvery is the elite-migration period (in generations)
// used when Config.MigrateEvery is 0.
const DefaultMigrateEvery = 3

// DefaultConfig returns the tuned DiGamma defaults.
func DefaultConfig() Config {
	return Config{
		PopSize:     40,
		EliteFrac:   0.10,
		CrossRate:   0.60,
		ReorderRate: 0.30,
		MutMapRate:  0.70,
		MutHWRate:   0.30,
		GrowRate:    0.05,
		AgeRate:     0.05,
		MaxLevels:   3,
		DivisorBias: 0.8,
		GreedyCross: 0.8,
		SeedFrac:    0.25,
		// Evaluation is pure and batched, so parallelism is free
		// determinism-wise; default to every available core.
		Workers: runtime.GOMAXPROCS(0),
	}
}

// GammaConfig returns the configuration for the GAMMA mapping-only
// baseline: identical genetic machinery with the HW operators disabled.
func GammaConfig() Config {
	c := DefaultConfig()
	c.FixedHW = true
	c.MutHWRate = 0
	c.GrowRate = 0
	c.AgeRate = 0
	return c
}

// Progress is a per-generation search snapshot, delivered through
// Engine.OnGeneration (and, one layer up, digamma.Options.OnProgress).
// It carries everything a serving or monitoring layer wants to stream
// without touching engine internals: where the search is, how good the
// incumbent is, and how the evaluation cache is doing.
type Progress struct {
	Generation  int     // generations completed (0 after the initial batch)
	Samples     int     // design points evaluated so far
	Budget      int     // total sampling budget of this run
	BestFitness float64 // incumbent objective value (includes penalties)

	// CacheHits / CacheMisses snapshot the problem's evaluation cache
	// counters (both zero when caching is disabled).
	CacheHits   uint64
	CacheMisses uint64

	// FullEvals / PrunedEvals / ScoutEvals split Samples into design
	// points scored by the full cost model, points screened out by their
	// fitness lower bound (0 unless Config.Prune is on), and points a
	// scout island scored on the bound fidelity tier (0 unless a "scout"
	// profile is configured). They sum to Samples.
	FullEvals   int
	PrunedEvals int
	ScoutEvals  int

	// DeltaEvals counts the bred candidates scored by the dirty-layer
	// delta path (results bit-identical to full evaluation; 0 when
	// Config.NoDelta is set), and LayersReused the per-layer analyses
	// the search recovered without re-running the cost model: delta-path
	// clones from breeding parents plus cache-tier hits during migration
	// re-scores.
	DeltaEvals   int
	LayersReused int

	// PoolGets / PoolReuses count Evaluation-buffer acquisitions from the
	// per-island pools and how many were served by recycling a dropped
	// individual's buffer; PoolReuses/PoolGets is the pool reuse rate
	// (0/0 before the first batch).
	PoolGets   uint64
	PoolReuses uint64
}

// Engine runs the genetic search against a co-optimization problem. It is
// a coordinator: the generation loop itself lives in the island unit
// (population, RNG stream, operator-rate profile, prune state — see
// island.go), and RunContext steps Config.Islands of them in lockstep
// with deterministic ring migration of elites.
type Engine struct {
	Problem *coopt.Problem
	Config  Config

	// OnEvaluation, when set, is invoked after every design-point
	// evaluation with the 1-based sample index — convergence tracing and
	// progress reporting hook.
	OnEvaluation func(sample int, ev *coopt.Evaluation)

	// OnGeneration, when set, is invoked after every generation (and once
	// more when the budget is exhausted) with a Progress snapshot. The
	// callback runs on the search goroutine: it must not block for long,
	// and it never influences the search (no RNG draws), so results stay
	// bit-identical whether or not it is installed.
	OnGeneration func(Progress)

	// OnCheckpoint, when set together with Config.CheckpointEvery > 0,
	// receives a resumable snapshot at every CheckpointEvery-th generation
	// boundary and at the cancellation boundary. The callback owns
	// persistence (and its failures); it runs on the search goroutine and
	// never influences the search.
	OnCheckpoint func(*Checkpoint)

	// Resume, when set, restores the run from a prior checkpoint instead
	// of drawing an initial population: the resumed run is bit-identical
	// to the uninterrupted one. The engine's seed, problem, config and
	// budget must match the checkpoint's.
	Resume *Checkpoint

	// Trace, when set, records per-generation phase spans (init, breed,
	// evaluate, migrate, checkpoint, finalize), per-operator attribution
	// and per-island statistics into the tracer's flight recorder. The
	// tracer only reads wall-clock time and counters the search already
	// computed — never the RNG streams — so results are bit-identical
	// traced or not; a nil Trace costs one branch per phase boundary.
	Trace *obs.Tracer

	// Placement, when set, is offered the whole run before the in-process
	// island loop starts: a transport seam for executing the islands
	// somewhere else (the multi-process backend in internal/dist). A
	// placement that declines — no workers reachable, run shape not
	// eligible — returns handled == false without consuming any engine
	// state, and the run falls through to the in-process path with
	// bit-identical results. See the Placement interface for the
	// determinism contract. Ignored on resumed runs.
	Placement Placement

	// OnMigration, when set, observes every migration boundary through the
	// transport seam: the generation number and each island's outgoing
	// elite set, as the states the wire protocol ships (AppendStates). Both
	// the in-process ring and the distributed coordinator emit through
	// this hook, so a test can assert the two transports exchange
	// byte-identical elites at every boundary. Nil costs one branch per
	// migration; the callback must not mutate the states.
	OnMigration func(gen int, exports [][]IndividualState)

	// rng is the master stream, drawn from seed through master, which
	// counts its draws: a checkpoint records the stream's position, and a
	// resume or a distributed worker replays it from the seed alone.
	seed   int64
	master *replaySource
	rng    *rand.Rand
}

// NewSeeded assembles an engine whose every RNG stream derives from seed:
// the search is a pure function of the seed and the config, and its
// streams are replayable, which checkpoints, resume and distribution rely
// on.
func NewSeeded(p *coopt.Problem, cfg Config, seed int64) (*Engine, error) {
	if p == nil {
		return nil, errors.New("core: nil problem")
	}
	if cfg.PopSize < 4 {
		return nil, fmt.Errorf("core: population %d too small", cfg.PopSize)
	}
	if cfg.MaxLevels < 2 {
		cfg.MaxLevels = 2
	}
	// A hierarchy grown (or given) past what a cost.Score holds is refused
	// here, before any individual is scored.
	if err := cost.CheckDepth(max(cfg.MaxLevels, p.Space.Levels)); err != nil {
		return nil, err
	}
	if p.FixedHW != nil {
		cfg.FixedHW = true
		cfg.MutHWRate, cfg.GrowRate, cfg.AgeRate = 0, 0, 0
	}
	if p.MappingRule != nil {
		// Fixed-Mapping mode: the style rule defines a fixed clustering
		// depth, so the hierarchy must not grow or age.
		cfg.GrowRate, cfg.AgeRate = 0, 0
	}
	if cfg.Islands < 0 {
		return nil, fmt.Errorf("core: negative island count %d", cfg.Islands)
	}
	if cfg.MigrateEvery < 0 {
		return nil, fmt.Errorf("core: negative migration period %d", cfg.MigrateEvery)
	}
	for _, name := range cfg.Profiles {
		if _, err := ProfileByName(name); err != nil {
			return nil, err
		}
	}
	src := newReplaySource(seed)
	return &Engine{Problem: p, Config: cfg, seed: seed, master: src, rng: rand.New(src)}, nil
}

// individual pairs a genome with its evaluation.
type individual struct {
	genome space.Genome
	eval   *coopt.Evaluation
}

// Result reports the search outcome.
type Result struct {
	Best        *coopt.Evaluation
	Generations int
	Samples     int       // objective evaluations actually spent
	History     []float64 // best fitness after each generation

	// FullEvals counts the samples scored by the full cost model
	// (including a scout island's elites re-scored at migration);
	// PrunedEvals counts the samples screened out by their fitness lower
	// bound instead (non-zero only under Config.Prune); ScoutEvals counts
	// the samples a scout island scored on the bound fidelity tier
	// (non-zero only under a "scout" profile). They sum to Samples.
	FullEvals   int
	PrunedEvals int
	ScoutEvals  int

	// DeltaEvals counts the bred candidates scored by the dirty-layer
	// delta path — a subset of FullEvals/ScoutEvals, bit-identical to a
	// from-scratch evaluation, 0 under Config.NoDelta — and LayersReused
	// the per-layer analyses the search recovered instead of re-running
	// the cost model: delta-path clones from breeding parents plus L1 and
	// shared-tier cache hits during migration re-scores.
	DeltaEvals   int
	LayersReused int

	// PoolGets / PoolReuses count Evaluation-buffer acquisitions from the
	// per-island pools and how many were served by recycling a dropped
	// individual's buffer; PoolReuses/PoolGets is the pool reuse rate.
	PoolGets   uint64
	PoolReuses uint64
}

// Run executes the search within the sampling budget (total design points
// evaluated, the paper's 40K-style budget) and returns the best
// evaluation found.
func (e *Engine) Run(budget int) (*Result, error) {
	return e.RunContext(context.Background(), budget)
}

// ErrCancelled wraps the context error when a search is cut short; test
// with errors.Is(err, context.Canceled) / context.DeadlineExceeded.
var ErrCancelled = errors.New("core: search cancelled")

// RunContext is Run with cooperative cancellation: the context is checked
// once per generation — never mid-batch, never on the RNG stream — so a
// run that completes within its budget is bit-identical to Run regardless
// of the context plumbed in. A cancelled or deadline-exceeded run returns
// an error wrapping both ErrCancelled and ctx.Err(); no partial result is
// returned unless Config.BestEffort opts into one.
//
// RunContext is the island coordinator: it builds Config.Islands islands
// (see island.go), steps them in lockstep generations — concurrently
// across the worker budget — and exchanges elites over a deterministic
// ring every MigrateEvery generations. A single-island run (the default)
// is bit-identical to the classic panmictic engine; a K-island run's
// results depend only on (Seed, Islands, MigrateEvery, Profiles), never
// on Workers.
func (e *Engine) RunContext(ctx context.Context, budget int) (*Result, error) {
	if budget < 1 {
		return nil, errors.New("core: non-positive budget")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if e.Placement != nil && e.Resume == nil {
		// Offer the run to the placement before any RNG is drawn: a
		// declining placement (handled == false) leaves the engine's
		// streams untouched, so the in-process fallback below remains
		// bit-identical to a run that never had a placement at all.
		res, handled, err := e.Placement.Run(ctx, e, budget)
		if handled {
			return res, err
		}
	}
	islands, err := e.buildIslands(budget)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	evs := make([][]*coopt.Evaluation, len(islands))
	// The checkpoint fingerprint hashes the config and every layer, so it
	// is taken once per run rather than at every checkpoint.
	var sum string
	if e.Resume != nil || e.OnCheckpoint != nil && e.Config.CheckpointEvery > 0 {
		sum = e.configSum()
	}

	if e.Resume != nil {
		// Resume: rebuild the checkpointed populations and accounting
		// instead of drawing an initial batch; the loop below then
		// continues exactly as the uninterrupted run would have.
		if err := e.restore(e.Resume, sum, islands, res, budget); err != nil {
			return nil, err
		}
	} else {
		// Initial populations: genomes drawn serially per island (each
		// island's private RNG stream fixes them), then evaluated as one
		// batch per island — island-concurrent — so the first generation
		// parallelizes like every later one.
		initial := make([][]space.Genome, len(islands))
		for i, is := range islands {
			initial[i] = is.initialGenomes()
		}
		err = e.forIslands(islands, func(i, workers int) error {
			var err error
			t0 := e.Trace.Now()
			evs[i], err = islands[i].evaluateBatch(initial[i], nil, nil, workers)
			e.traceEvaluate(obs.PhaseInit, islands[i], 0, t0, len(initial[i]))
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, is := range islands {
			e.account(res, is, evs[i])
			is.install(0, initial[i], evs[i])
		}
	}
	if res.Samples == 0 {
		return nil, errors.New("core: budget exhausted before first evaluation")
	}

	migrateEvery := e.Config.MigrateEvery
	if migrateEvery == 0 {
		migrateEvery = DefaultMigrateEvery
	}
	scouts := make([]bool, len(islands))
	for i, is := range islands {
		scouts[i] = is.scout
	}
	route := MigrationRoute(scouts)

	// Each island with more than one worker gets a run-scoped crew of
	// share−1 evaluation helpers that score its children while it breeds
	// (see breedEvaluate); the helpers stay up across generations and stop
	// on every return path below.
	crews := make([]*crew, len(islands))
	for i := range islands {
		crews[i] = newCrew(e.workerShare(len(islands), i) - 1)
	}
	defer stopCrews(crews)

	for res.Samples < budget && !e.reachedTarget(islands) {
		// Top of the body is the generation boundary: populations
		// installed, no RNG drawn for the next generation. A cancellation
		// detected here (the drain path) leaves state indistinguishable
		// from a periodic checkpoint's, so the final checkpoint of a
		// drained run resumes bit-identically.
		if err := ctx.Err(); err != nil {
			e.emitCheckpoint(sum, res, budget, islands)
			return e.cancelled(res, budget, islands, err)
		}
		if e.Config.CheckpointEvery > 0 && res.Generations%e.Config.CheckpointEvery == 0 {
			e.emitCheckpoint(sum, res, budget, islands)
		}
		for _, is := range islands {
			is.begin()
		}
		res.History = append(res.History, bestOf(islands).eval.Fitness)
		e.emitProgress(res, budget, islands)
		if err := ctx.Err(); err != nil {
			// Mid-body boundary (a cancel fired from the OnGeneration hook
			// lands here): best/History have advanced past the
			// snapshot format's boundary, so no checkpoint — a resume
			// falls back to the last periodic one.
			return e.cancelled(res, budget, islands, err)
		}
		res.Generations++

		if len(islands) > 1 && res.Generations%migrateEvery == 0 {
			t0 := e.Trace.Now()
			if err := e.exchange(islands, route, res); err != nil {
				return nil, err
			}
			e.traceSpan(obs.PhaseMigrate, -1, res.Generations, t0)
		}

		// Each island breeds serially on its own RNG stream (which fixes
		// the children) while its crew scores them — island-concurrent, and
		// evaluation is pure, so results and sample accounting stay
		// deterministic at any worker count.
		err := e.forIslands(islands, func(i, _ int) error {
			is := islands[i]
			// res.Generations is written only on the coordinator between
			// lockstep phases, so reading it here for span labels is safe.
			gen := res.Generations
			t0 := e.Trace.Now()
			var err error
			evs[i], err = is.breedEvaluate(crews[i], 1)
			if err != nil || len(evs[i]) == 0 {
				return err // an empty brood: budget share spent, the island idles
			}
			// The breed span ends at the last child bred; scoring that
			// overlapped breeding is counted under it.
			e.traceSpanTo(obs.PhaseBreed, is.id, gen, t0, is.bredAt)
			e.traceEvaluate(obs.PhaseEvaluate, is, gen, is.bredAt, len(evs[i]))
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, is := range islands {
			if n := len(evs[i]); n > 0 {
				e.traceOps(is, n, evs[i])
				e.account(res, is, evs[i])
				is.install(is.elites, is.children[:n], evs[i])
			}
		}
		if e.Trace != nil {
			e.traceIslands(islands)
		}
	}

	return e.finalize(res, budget, islands), nil
}

// finalize closes out a run (completed, or interrupted under BestEffort):
// orders the populations, promotes the global best and folds the delta/pool
// telemetry into the result.
func (e *Engine) finalize(res *Result, budget int, islands []*island) *Result {
	t0 := e.Trace.Now()
	for _, is := range islands {
		is.sortPop()
	}
	best := bestOf(islands)
	res.History = append(res.History, best.eval.Fitness)
	// The best escapes the run: detach it from the search's slab
	// allocators (pool chunks, breeding arenas) so a caller retaining it —
	// the serving job store keeps results for thousands of jobs — pins
	// only the evaluation itself.
	res.Best = best.eval.Detach()
	e.emitProgress(res, budget, islands)
	e.collectDelta(res, islands)
	if e.Trace != nil {
		e.traceIslands(islands)
		e.traceSpan(obs.PhaseFinalize, -1, res.Generations, t0)
	}
	return res
}

// cancelled shapes an interrupted run's return: by default no partial
// result escapes; under Config.BestEffort the best-so-far state is
// finalized and returned alongside the error — the serving layer's
// "degraded" per-job deadline semantics.
func (e *Engine) cancelled(res *Result, budget int, islands []*island, err error) (*Result, error) {
	cerr := fmt.Errorf("%w after generation %d (%d samples): %w",
		ErrCancelled, res.Generations, res.Samples, err)
	if e.Config.BestEffort {
		return e.finalize(res, budget, islands), cerr
	}
	return nil, cerr
}

// collectDelta folds the islands' delta-path and pool counters into the
// run counters (idempotent: the fields are overwritten, not accumulated,
// so per-generation progress snapshots and the final result agree).
func (e *Engine) collectDelta(res *Result, islands []*island) {
	res.DeltaEvals, res.LayersReused = 0, 0
	res.PoolGets, res.PoolReuses = 0, 0
	for _, is := range islands {
		res.DeltaEvals += is.deltaEvals
		res.LayersReused += is.layersReused
		gets, reuses := is.pool.Stats()
		// The biases are non-zero only on a resumed run: they re-base the
		// rebuilt pool's counters onto the original run's totals.
		res.PoolGets += gets + is.poolGetBias
		res.PoolReuses += reuses + is.poolReuseBias
	}
}

// buildIslands assembles the run's islands: the island count clamped to
// the budget, per-island budget shares (even split, remainder to the
// first islands), per-island profiles under the Config.Profiles rotation,
// and per-island RNG streams. A single island runs on the engine's master
// stream — the bit-identical classic engine; K > 1 islands draw one seed
// each from the master stream before any search work, so island streams
// are independent yet fixed by the master seed.
func (e *Engine) buildIslands(budget int) ([]*island, error) {
	k := e.PlannedIslands(budget)
	profiles := make([]Profile, k)
	anyFull := false
	for i := range profiles {
		pr, err := profileFor(e.Config.Profiles, i)
		if err != nil {
			return nil, err
		}
		profiles[i] = pr
		if !pr.Scout {
			anyFull = true
		}
	}
	if !anyFull {
		// Every island would screen on the bound tier with nowhere to
		// migrate to; island 0 falls back to the default profile so the
		// run always has a full-fidelity population to report from.
		profiles[0] = Profile{Name: "default"}
	}

	// Every island stream runs through a draw-counting replaySource so
	// checkpoints can record (and restore fast-forward) its position; the
	// wrapper forwards draws 1:1, so it changes no stream.
	rngs := make([]*rand.Rand, k)
	srcs := make([]*replaySource, k)
	seeds := make([]int64, k)
	if k == 1 {
		rngs[0], srcs[0] = e.rng, e.master
	} else {
		for i := range rngs {
			seeds[i] = e.rng.Int63()
			srcs[i] = newReplaySource(seeds[i])
			rngs[i] = rand.New(srcs[i])
		}
	}

	// The global population is partitioned across the ring — the classic
	// island model: K islands of PopSize/K individuals step as many
	// generations as one PopSize population would, so equal budget buys
	// equal search depth plus the diversity of semi-isolated evolution.
	// The floor of 4 keeps tournaments and crossover meaningful on very
	// small slices.
	islands := make([]*island, k)
	share, extra := budget/k, budget%k
	popShare, popExtra := e.Config.PopSize/k, e.Config.PopSize%k
	for i := range islands {
		b := share
		if i < extra {
			b++
		}
		pop := popShare
		if i < popExtra {
			pop++
		}
		pop = max(pop, 4)
		is, err := newIsland(e, i, profiles[i], rngs[i], pop, b)
		if err != nil {
			return nil, err
		}
		is.src = srcs[i]
		is.seed = seeds[i]
		islands[i] = is
	}
	if len(e.Config.Warm) > 0 {
		// Warm-start genomes seed exactly one island — the first
		// full-fidelity one — so the rest of the ring still explores from
		// scratch and a bad prior can be out-competed by migration.
		for _, is := range islands {
			if !is.scout {
				is.warm = e.Config.Warm
				break
			}
		}
	}
	return islands, nil
}

// forIslands runs one lockstep phase: fn(i, workers) for every island,
// concurrently up to the engine's worker budget, with the workers split
// across the islands' batch evaluations — the remainder goes to the
// first islands, so no core idles when k does not divide the budget
// (results never depend on the split; only wall-clock does). A single
// island runs on the caller's goroutine with the full worker budget —
// exactly the classic engine's shape.
func (e *Engine) forIslands(islands []*island, fn func(i, workers int) error) error {
	k := len(islands)
	return par.For(k, min(k, max(e.Config.Workers, 1)), func(i int) error {
		return fn(i, e.workerShare(k, i))
	})
}

// workerShare is island i's slice of the engine's worker budget across k
// islands: an even split, remainder to the first islands, at least one.
func (e *Engine) workerShare(k, i int) int {
	workers := max(e.Config.Workers, 1)
	w := workers / k
	if i < workers%k {
		w++
	}
	return max(w, 1)
}

// account books one island batch against the run: sample counters split
// by how each point was scored, and the OnEvaluation hook in batch order.
// Runs on the coordinator goroutine, island by island in ring order, so
// sample indices are deterministic and the hook never races.
func (e *Engine) account(res *Result, is *island, evs []*coopt.Evaluation) {
	for _, ev := range evs {
		res.Samples++
		is.samples++
		switch {
		case is.scout:
			res.ScoutEvals++
		case ev.Pruned:
			res.PrunedEvals++
		default:
			res.FullEvals++
		}
		if e.OnEvaluation != nil {
			e.OnEvaluation(res.Samples, ev)
		}
	}
}

// rescored is the hook that books a scout's export re-scores against
// res: full-model samples, reported to OnEvaluation in ring order.
func (e *Engine) rescored(res *Result) func(*coopt.Evaluation) {
	return func(ev *coopt.Evaluation) {
		res.Samples++
		res.FullEvals++
		if e.OnEvaluation != nil {
			e.OnEvaluation(res.Samples, ev)
		}
	}
}

// bestOf returns the best individual across the full-fidelity islands.
// Scout islands are excluded: their fitnesses are bound-tier readings,
// comparable only after the migration re-score. buildIslands guarantees
// at least one non-scout island with a non-empty population.
// reachedTarget reports whether the time-to-target stop rule fires: a
// Target is set and some full-fidelity individual already meets it.
// Evaluated only at generation boundaries, so the stop commutes with
// checkpointing and is a pure function of the search trajectory. The
// populations are not yet sorted at the post-install boundary (sorting
// happens in begin), so this scans rather than trusting cur[0]
// — a warm-started search whose seed opens at the target must stop
// before breeding a single generation.
func (e *Engine) reachedTarget(islands []*island) bool {
	if e.Config.Target <= 0 {
		return false
	}
	for _, is := range islands {
		if is.scout {
			continue
		}
		for _, ind := range is.cur {
			if ind.eval != nil && ind.eval.Valid && ind.eval.Fitness <= e.Config.Target {
				return true
			}
		}
	}
	return false
}

func bestOf(islands []*island) individual {
	var best individual
	found := false
	for _, is := range islands {
		if is.scout || len(is.cur) == 0 {
			continue
		}
		if !found || is.cur[0].eval.Fitness < best.eval.Fitness {
			best = is.cur[0]
			found = true
		}
	}
	return best
}

// exchange is the in-process delivery of one migration boundary: every
// island exports before any receives — so the exchange is
// order-independent — and island i's bytes go to island route[i] in
// memory, where the distributed coordinator sends the same bytes over
// TCP. A scout's re-scores are booked as full-model samples in ring
// order. No RNG is drawn, so migration preserves the per-island streams.
func (e *Engine) exchange(islands []*island, route []int, res *Result) error {
	exports := make([][]byte, len(islands))
	for i, is := range islands {
		var err error
		if exports[i], err = is.exportElites(res.Generations, e.rescored(res)); err != nil {
			return err
		}
	}
	if err := e.ObserveMigration(res.Generations, exports); err != nil {
		return err
	}
	inbox := Inboxes(route, exports)
	for j, is := range islands {
		if err := is.receiveMigrants(inbox[j]); err != nil {
			return err
		}
	}
	return nil
}

// emitProgress delivers a Progress snapshot to OnGeneration, if installed.
// History always has ≥ 1 entry here (appended just before every call), so
// even a budget ≤ popsize run emits exactly one snapshot.
func (e *Engine) emitProgress(res *Result, budget int, islands []*island) {
	if e.OnGeneration == nil {
		return
	}
	e.collectDelta(res, islands)
	p := Progress{
		Generation:   len(res.History) - 1,
		Samples:      res.Samples,
		Budget:       budget,
		BestFitness:  res.History[len(res.History)-1],
		FullEvals:    res.FullEvals,
		PrunedEvals:  res.PrunedEvals,
		ScoutEvals:   res.ScoutEvals,
		DeltaEvals:   res.DeltaEvals,
		LayersReused: res.LayersReused,
		PoolGets:     res.PoolGets,
		PoolReuses:   res.PoolReuses,
	}
	if e.Problem.Cache != nil {
		p.CacheHits, p.CacheMisses = e.Problem.Cache.Lookups()
	}
	e.OnGeneration(p)
}

// traceSpan records one phase span opened at t0 and closing now. One
// branch and no clock read when tracing is off (Now returned 0).
func (e *Engine) traceSpan(name string, island, gen int, t0 time.Duration) {
	if e.Trace == nil {
		return
	}
	e.traceSpanTo(name, island, gen, t0, e.Trace.Now())
}

// traceSpanTo records one phase span over [t0, t1]. No-op untraced.
func (e *Engine) traceSpanTo(name string, island, gen int, t0, t1 time.Duration) {
	if e.Trace == nil {
		return
	}
	e.Trace.Record(obs.Span{
		Name: name, Cat: obs.CatPhase,
		Island: int32(island), Gen: int32(gen),
		Start: t0, Dur: t1 - t0,
	})
}

// traceEvaluate records an evaluate/init span carrying the batch
// composition read back from the island's per-slot accounting
// (reused[i] ≥ 0 delta, -1 full, -2 bound-pruned).
func (e *Engine) traceEvaluate(name string, is *island, gen int, t0 time.Duration, n int) {
	if e.Trace == nil {
		return
	}
	var full, delta, pruned int32
	for _, r := range is.reused[:n] {
		switch {
		case r >= 0:
			delta++
		case r == -1:
			full++
		default:
			pruned++
		}
	}
	e.Trace.Record(obs.Span{
		Name: name, Cat: obs.CatPhase,
		Island: int32(is.id), Gen: int32(gen),
		Start: t0, Dur: e.Trace.Now() - t0,
		N: int32(n), Full: full, Delta: delta, Pruned: pruned,
	})
}

// traceOps folds one island batch's per-operator attribution into the
// tracer. Runs on the coordinator before install, while the breeding
// parents' evaluations are still valid: each child's fitness improvement
// over its breeding parent is co-attributed to every operator in the
// child's mask (a win's gain is credited to each participant, so gains
// are comparative across operators, not additive).
func (e *Engine) traceOps(is *island, n int, evs []*coopt.Evaluation) {
	if is.trace == nil {
		return
	}
	var stats [obs.NumOps]obs.OpStat
	for i := 0; i < n; i++ {
		mask := is.ops[i]
		gain := is.parents[i].Fitness - evs[i].Fitness
		for op := obs.Op(0); op < obs.NumOps; op++ {
			if !mask.Has(op) {
				continue
			}
			stats[op].Children++
			if gain > 0 {
				stats[op].Wins++
				stats[op].Gain += gain
			}
		}
	}
	e.Trace.FoldOps(&stats)
}

// traceIslands records each island's latest best fitness, diversity
// (population fitness standard deviation, computed inline without
// allocating) and cumulative samples. Coordinator-only, outside the
// concurrent phases.
func (e *Engine) traceIslands(islands []*island) {
	for _, is := range islands {
		var bestF, mean float64
		if len(is.cur) > 0 {
			bestF = is.cur[0].eval.Fitness
			for _, ind := range is.cur {
				mean += ind.eval.Fitness
			}
			mean /= float64(len(is.cur))
		}
		div := 0.0
		if len(is.cur) > 1 {
			varsum := 0.0
			for _, ind := range is.cur {
				d := ind.eval.Fitness - mean
				varsum += d * d
			}
			div = math.Sqrt(varsum / float64(len(is.cur)))
		}
		e.Trace.ObserveIsland(obs.IslandStat{
			Island:      is.id,
			Profile:     is.profile,
			Scout:       is.scout,
			Samples:     int64(is.samples),
			BestFitness: bestF,
			Diversity:   div,
		})
	}
}
