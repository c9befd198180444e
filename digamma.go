// Package digamma is a from-scratch Go reproduction of "DiGamma:
// Domain-aware Genetic Algorithm for HW-Mapping Co-optimization for DNN
// Accelerators" (Kao, Pellauer, Parashar, Krishna — DATE 2022).
//
// It co-optimizes a DNN accelerator's hardware resources (PE hierarchy and
// buffer sizes) together with its mapping strategy (tiling, loop order,
// parallelism, clustering) under a chip-area budget, and ships everything
// the paper's evaluation depends on: a MAESTRO-like analytical cost model,
// a seven-model workload zoo, eight baseline black-box optimizers, the
// GAMMA mapper, and the manual HW/mapping baseline schemes.
//
// Quick start:
//
//	model, _ := digamma.LoadModel("resnet18")
//	best, _ := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{
//		Budget: 4000,
//		Seed:   1,
//	})
//	fmt.Println(best.HW, best.Cycles)
package digamma

import (
	"context"
	"errors"
	"fmt"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/cost"
	"digamma/internal/dist"
	"digamma/internal/evalcache"
	"digamma/internal/obs"
	"digamma/internal/opt"
	"digamma/internal/workload"
)

// Re-exported domain types. The facade keeps downstream imports to a
// single package while the implementation lives under internal/.
type (
	// Model is a DNN workload: an ordered list of Conv/DSConv/GEMM layers.
	Model = workload.Model
	// Layer is one operator in the K,C,Y,X,R,S mapping space.
	Layer = workload.Layer
	// HW is a concrete accelerator configuration.
	HW = arch.HW
	// Platform is a deployment target (area budget + cost models).
	Platform = arch.Platform
	// Evaluation is a fully scored design point.
	Evaluation = coopt.Evaluation
	// Problem is a co-optimization instance for advanced use.
	Problem = coopt.Problem
	// SearchResult reports a genetic search outcome (best + history).
	SearchResult = core.Result
)

// Objective selects the metric to minimize.
type Objective = coopt.Objective

// Supported objectives.
const (
	Latency            = coopt.Latency
	Energy             = coopt.Energy
	EDP                = coopt.EDP
	LatencyAreaProduct = coopt.LatencyAreaProduct
)

// ModelNames lists the built-in seven-model zoo.
var ModelNames = workload.ModelNames

// LoadModel returns one of the built-in models by name (see ModelNames).
func LoadModel(name string) (Model, error) { return workload.ByName(name) }

// EdgePlatform returns the paper's edge target (0.2 mm² for PEs+buffers).
func EdgePlatform() Platform { return arch.Edge() }

// CloudPlatform returns the paper's cloud target (7.0 mm²).
func CloudPlatform() Platform { return arch.Cloud() }

// Algorithms lists every available search algorithm: the eight baselines
// plus "DiGamma".
func Algorithms() []string {
	return append(append([]string(nil), opt.BaselineNames...), "DiGamma")
}

// Typed option-validation errors, returned (wrapped, with detail) by every
// facade search entry point before any work is done. Serving layers map
// them to client errors (HTTP 400); test with errors.Is.
var (
	// ErrUnknownAlgorithm reports an Options.Algorithm not in Algorithms().
	ErrUnknownAlgorithm = errors.New("digamma: unknown algorithm")
	// ErrUnknownObjective reports an out-of-range Options.Objective.
	ErrUnknownObjective = errors.New("digamma: unknown objective")
	// ErrUnknownFidelity reports an Options.Fidelity not in Fidelities().
	ErrUnknownFidelity = errors.New("digamma: unknown fidelity")
	// ErrUnknownProfile reports an Options.IslandProfiles entry not in
	// IslandProfiles().
	ErrUnknownProfile = errors.New("digamma: unknown island profile")
	// ErrBadIslands reports a negative Options.Islands or
	// Options.MigrateEvery.
	ErrBadIslands = errors.New("digamma: bad island configuration")
)

// Fidelities lists the cost-model fidelity tiers accepted by
// Options.Fidelity, cheapest-first: "bound" (roofline lower-bound screen),
// "analytical" (the default MAESTRO-style model) and "physical"
// (bandwidth/energy derived from explicit NoC + DRAM models).
func Fidelities() []string {
	return append([]string(nil), cost.BackendNames...)
}

// IslandProfiles lists the per-island operator profiles accepted by
// Options.IslandProfiles: "default" (the tuned rates as-is), "explorer"
// (boosted Grow/Mutate/Reorder rates), "exploiter" (high elite fraction,
// strongly divisor-biased tiling) and "scout" (a screening island scored
// on the "bound" fidelity tier whose migrating elites are re-scored by
// the full model).
func IslandProfiles() []string {
	return append([]string(nil), core.ProfileNames...)
}

// Progress is a per-generation search snapshot delivered through
// Options.OnProgress: where the search is, the incumbent fitness, and the
// evaluation-cache counters.
type Progress = core.Progress

// Checkpoint is a versioned, resumable snapshot of a genetic search at a
// generation boundary, delivered through Options.OnCheckpoint and fed back
// through Options.Resume. Serialize with its Marshal method; decode with
// UnmarshalCheckpoint. A resumed run is bit-identical to the uninterrupted
// one.
type Checkpoint = core.Checkpoint

// UnmarshalCheckpoint decodes a checkpoint previously serialized with
// Checkpoint.Marshal, validating its format version.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	return core.UnmarshalCheckpoint(data)
}

// Tracer is a bounded flight recorder for one search: per-generation
// phase spans (init, breed, evaluate, migrate, checkpoint), per-operator
// attribution of fitness improvements and per-island statistics. Install
// one via Options.Trace, then export its Snapshot as Chrome trace_event
// JSON (obs.WriteTraceEvents) or reduce it to a run report
// (obs.BuildReport). Tracing never draws from the search's RNG streams,
// so a traced run's result is bit-identical to an untraced one.
type Tracer = obs.Tracer

// NewTracer returns a tracer whose flight recorder holds spanCap spans
// (0 = obs.DefaultSpanCap); once full, the oldest spans are overwritten.
func NewTracer(spanCap int) *Tracer { return obs.NewTracer(spanCap) }

// Options configures an optimization run.
type Options struct {
	// Budget is the sampling budget — the number of design points the
	// search may evaluate (the paper uses 40000). Default 2000.
	Budget int
	// Seed makes runs reproducible. Default 1.
	Seed int64
	// Objective to minimize. Default Latency.
	Objective Objective
	// Algorithm selects the optimizer (see Algorithms()). Default
	// "DiGamma".
	Algorithm string
	// Workers bounds DiGamma's parallel evaluation workers. 0 uses every
	// available core (the default); 1 forces a serial run. Results are
	// bit-identical at any setting — parallelism changes only wall-clock.
	Workers int
	// Fidelity selects the cost-model tier scoring every design point
	// (see Fidelities()). Default "analytical" — the unmodified default
	// model, bit-identical to earlier releases. "physical" derives
	// interconnect bandwidth/energy and the off-chip bandwidth floor
	// from explicit NoC + DRAM models; "bound" scores only the provable
	// roofline lower bound (an ultra-cheap screening tier).
	Fidelity string
	// Prune enables bound-based pruning inside the genetic engines —
	// DiGamma and the fixed-HW GAMMA mapper: candidates whose roofline
	// lower bound already exceeds the incumbent best skip the full cost
	// model (see core.Config.Prune for the exactness window). Ignored by
	// the baseline vector algorithms.
	Prune bool
	// Islands splits the genetic search into K semi-isolated populations
	// stepped in lockstep, exchanging elites over a deterministic ring
	// every MigrateEvery generations (see core.Config.Islands). ≤ 1 (the
	// default) runs the classic single population — bit-identical to
	// earlier releases. Results depend only on
	// (Seed, Islands, MigrateEvery, IslandProfiles), never on Workers.
	// Ignored by the baseline vector algorithms.
	Islands int
	// MigrateEvery is the island elite-migration period in generations;
	// 0 uses core.DefaultMigrateEvery.
	MigrateEvery int
	// IslandProfiles assigns per-island operator profiles by name (see
	// IslandProfiles()): island i runs the profile at i mod len. Empty
	// runs every island on "default". Heterogeneous profiles — explorer,
	// exploiter, the bound-fidelity scout — are the island model's
	// diversity lever.
	IslandProfiles []string
	// OnProgress, when non-nil, receives a snapshot after every search
	// generation (baseline algorithms report every ~budget/50 samples).
	// It runs on the search goroutine and never influences the search:
	// results are bit-identical with or without it.
	OnProgress func(Progress)
	// CheckpointEvery, when > 0 together with OnCheckpoint, emits a
	// resumable Checkpoint every that-many generations and once more at
	// the cancellation boundary (the drain path). 0 — the default — turns
	// checkpointing off entirely. Genetic engines only; the baseline
	// vector algorithms ignore it.
	CheckpointEvery int
	// OnCheckpoint receives the periodic checkpoints. It runs on the
	// search goroutine, owns persistence, and never influences the
	// search.
	OnCheckpoint func(*Checkpoint)
	// Resume restores the search from a checkpoint instead of a fresh
	// initial population. The model, platform, options and budget must
	// match the checkpointed run's (fingerprint-verified); the resumed
	// run's result is bit-identical to the uninterrupted one.
	Resume *Checkpoint
	// BestEffort makes a cancelled or deadline-exceeded genetic search
	// return its best-so-far evaluation alongside the error — the
	// serving layer's "degraded" per-job deadline semantics — instead of
	// the default nil result.
	BestEffort bool
	// Trace, when non-nil, records the search into the tracer's flight
	// recorder: an umbrella "search" span plus the engine's per-generation
	// phase spans, operator attribution and island statistics. Tracing is
	// off the RNG stream — results are bit-identical with or without it —
	// and a nil Trace costs one branch per phase boundary. Genetic engines
	// only; the baseline vector algorithms record just the umbrella span.
	Trace *Tracer
	// SharedCache, when non-nil, attaches a process-wide shared analysis
	// tier (see AnalysisStore): per-layer cost-model analyses computed by
	// any search probe and feed it, so near-duplicate searches skip
	// re-analysis across requests — and across restarts, with a
	// disk-backed store. Pure reuse of pure functions: results are
	// bit-identical with or without it, and with any store content.
	SharedCache *AnalysisStore
	// WarmStart, together with SharedCache, seeds the search's first
	// full-fidelity island from the nearest prior result in the store
	// (highest per-layer content-hash overlap, same objective/platform/
	// fidelity/mode). Unlike pure cache sharing this changes the search
	// trajectory — the result depends on what ran before — so it is
	// opt-in, and serving layers hash it into their dedup key. Ignored
	// on resumed runs and by the baseline vector algorithms.
	WarmStart bool
	// DistWorkers lists the addresses (host:port) of digammad worker
	// processes (started with -worker) to shard a DiGamma island search
	// across. Empty — the default — runs everything in-process. With
	// workers configured and an eligible run (Islands ≥ 2, no
	// per-evaluation or checkpoint hooks, no warm start, resume or
	// target), the islands execute across the worker processes with
	// deterministic elite migration over the wire; results are
	// bit-identical to the in-process run — a pure function of
	// (Seed, Islands, MigrateEvery, IslandProfiles), never of worker or
	// process count. Ineligible runs and handshake failures fall back to
	// the in-process path, also bit-identically. Worker crashes mid-run
	// are re-homed onto surviving workers; only losing every worker
	// fails the search. Full co-optimization only: OptimizeMapping
	// ignores this. See docs/dist-protocol.md.
	DistWorkers []string
	// Target, when > 0, stops the genetic search at the first generation
	// boundary where the best design is valid with fitness ≤ Target,
	// instead of always spending the whole Budget — time-to-target mode.
	// This is what converts warm starts into wall-clock wins: a search
	// seeded from a near-duplicate prior result opens at or near the
	// target and returns within its first generations. Deterministic
	// (the stop depends only on the trajectory, never on Workers or
	// wall-clock) but budget-truncating, so serving layers hash it into
	// their dedup key. The fitness scale is the Objective's: cycles for
	// Latency, picojoules for Energy, and so on. Ignored by the baseline
	// vector algorithms. Default 0: always run the full budget.
	Target float64

	// placement is the resolved DistWorkers coordinator, built where the
	// model and platform are in scope and attached by runEngine.
	placement core.Placement
}

// withDefaults fills unset fields and validates the rest up front, so a
// bad algorithm or objective fails before any search machinery spins up
// (previously an unknown algorithm survived until deep inside the run).
func (o Options) withDefaults() (Options, error) {
	if o.Budget <= 0 {
		o.Budget = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Algorithm == "" {
		o.Algorithm = "DiGamma"
	}
	if o.Objective > LatencyAreaProduct {
		return o, fmt.Errorf("%w: Objective(%d) (want one of latency, energy, edp, latency-area)",
			ErrUnknownObjective, uint8(o.Objective))
	}
	if o.Algorithm != "DiGamma" {
		if _, err := opt.ByName(o.Algorithm); err != nil {
			return o, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownAlgorithm, o.Algorithm, Algorithms())
		}
	}
	if o.Fidelity == "" {
		o.Fidelity = "analytical"
	}
	if _, err := cost.BackendByName(o.Fidelity); err != nil {
		return o, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownFidelity, o.Fidelity, Fidelities())
	}
	if o.Islands < 0 {
		return o, fmt.Errorf("%w: Islands %d (want ≥ 0)", ErrBadIslands, o.Islands)
	}
	if o.MigrateEvery < 0 {
		return o, fmt.Errorf("%w: MigrateEvery %d (want ≥ 0)", ErrBadIslands, o.MigrateEvery)
	}
	for _, name := range o.IslandProfiles {
		if _, err := core.ProfileByName(name); err != nil {
			return o, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownProfile, name, IslandProfiles())
		}
	}
	return o, nil
}

// problemFor assembles the co-optimization problem for the options,
// applying the selected fidelity backend. The "analytical" default leaves
// the problem untouched — the exact code path earlier releases ran.
func (o Options) problemFor(model Model, platform Platform) (*Problem, error) {
	p, err := coopt.NewProblemSized(model, platform, o.Objective, o.cacheHint(model))
	if err != nil {
		return nil, err
	}
	return o.applyFidelity(p)
}

// cacheHint bounds the analysis cache near the search's actual demand
// (2× B×L headroom against set-conflict evictions, floored so tiny
// requests never thrash); len(model.Layers) over-counts duplicates, which
// only errs toward the safe (larger) side. 0 means the default capacity —
// the right one for long searches. Worker processes size their caches
// with the same hint (it travels in the dist.Spec), keeping per-process
// memory proportional to the run.
func (o Options) cacheHint(model Model) int {
	if o.Budget <= 0 {
		return 0
	}
	hint := max(2*o.Budget*len(model.Layers), 1<<9)
	if hint >= evalcache.DefaultCapacity {
		return 0
	}
	return hint
}

// distPlacement assembles the multi-process coordinator for DistWorkers:
// a serializable Spec describing this exact run (the worker handshake
// cross-checks its config fingerprint) plus the worker pool. Nil when no
// workers are configured or the algorithm is not the genetic engine.
func (o Options) distPlacement(model Model, platform Platform) core.Placement {
	if len(o.DistWorkers) == 0 || o.Algorithm != "DiGamma" {
		return nil
	}
	layers := make([]workload.LayerSpec, len(model.Layers))
	for i, l := range model.Layers {
		layers[i] = workload.Spec(l)
	}
	return &dist.Coordinator{
		Spec: dist.Spec{
			ModelName: model.Name,
			Layers:    layers,
			Platform:  platform,
			Objective: o.Objective,
			Fidelity:  o.Fidelity,
			CacheHint: o.cacheHint(model),
			Config:    o.engineConfig(core.DefaultConfig()),
			Seed:      o.Seed,
		},
		Workers: o.DistWorkers,
	}
}

// applyFidelity wires the options' fidelity tier into an assembled problem.
func (o Options) applyFidelity(p *Problem) (*Problem, error) {
	q, err := p.WithFidelity(o.Fidelity)
	if err != nil {
		// Unreachable after withDefaults, kept as a safety net.
		return nil, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownFidelity, o.Fidelity, Fidelities())
	}
	return o.attachShared(q), nil
}

// engineConfig builds the DiGamma engine configuration for the options.
func (o Options) engineConfig(base core.Config) core.Config {
	if o.Workers != 0 {
		base.Workers = o.Workers
	}
	base.Prune = o.Prune
	base.Islands = o.Islands
	base.MigrateEvery = o.MigrateEvery
	base.Profiles = o.IslandProfiles
	base.CheckpointEvery = o.CheckpointEvery
	base.BestEffort = o.BestEffort
	base.Target = o.Target
	return base
}

// runEngine assembles the seeded genetic engine for a problem, wires the
// progress/durability hooks and runs it. Under BestEffort an interrupted
// run returns its partial best alongside the error.
func (o Options) runEngine(ctx context.Context, p *Problem, base core.Config) (*Evaluation, error) {
	eng, err := core.NewSeeded(p, o.warmConfig(p, o.engineConfig(base)), o.Seed)
	if err != nil {
		return nil, err
	}
	eng.OnGeneration = o.OnProgress
	eng.OnCheckpoint = o.OnCheckpoint
	eng.Resume = o.Resume
	eng.Trace = o.Trace
	eng.Placement = o.placement
	r, err := eng.RunContext(ctx, o.Budget)
	if err != nil {
		if r != nil {
			// Only possible under BestEffort: the engine finalized a
			// partial result at the interrupting generation boundary.
			return r.Best, err
		}
		return nil, err
	}
	o.recordResult(p, r.Best)
	return r.Best, nil
}

// Validate reports whether the options would be accepted by a search
// entry point, without running anything: ErrUnknownAlgorithm or
// ErrUnknownObjective (wrapped, with detail) on bad selections, nil
// otherwise. Serving layers use it to reject requests before queueing.
func (o Options) Validate() error {
	_, err := o.withDefaults()
	return err
}

// Optimize co-optimizes hardware and mapping for a model on a platform
// and returns the best design point found.
func Optimize(model Model, platform Platform, o Options) (*Evaluation, error) {
	return OptimizeContext(context.Background(), model, platform, o)
}

// OptimizeContext is Optimize with cooperative cancellation: the context
// is checked between generations, so cancellation (or a deadline) stops
// the search within one generation without perturbing determinism — a run
// that completes is bit-identical to Optimize. A cancelled run returns an
// error satisfying errors.Is(err, ctx.Err()) and no partial result.
func OptimizeContext(ctx context.Context, model Model, platform Platform, o Options) (*Evaluation, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	defer o.traceSearch()()
	p, err := o.problemFor(model, platform)
	if err != nil {
		return nil, err
	}
	if o.Algorithm == "DiGamma" {
		o.placement = o.distPlacement(model, platform)
		return o.runEngine(ctx, p, core.DefaultConfig())
	}
	alg, err := opt.ByName(o.Algorithm)
	if err != nil {
		// Unreachable after withDefaults, kept as a safety net.
		return nil, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownAlgorithm, o.Algorithm, Algorithms())
	}
	ev, err := p.RunVectorContext(ctx, alg, o.Budget, o.Seed, vectorProgress(o))
	if err != nil {
		return nil, err
	}
	o.recordResult(p, ev)
	return ev, nil
}

// OptimizeMapping searches only the mapping space for a fixed hardware
// configuration (the paper's Fixed-HW use-case, i.e. the GAMMA mapper).
// Buffer capacities in hw become constraints on the mapping.
func OptimizeMapping(model Model, platform Platform, hw HW, o Options) (*Evaluation, error) {
	return OptimizeMappingContext(context.Background(), model, platform, hw, o)
}

// OptimizeMappingContext is OptimizeMapping with cooperative cancellation
// and progress reporting, with the same guarantees as OptimizeContext.
func OptimizeMappingContext(ctx context.Context, model Model, platform Platform, hw HW, o Options) (*Evaluation, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	defer o.traceSearch()()
	p, err := o.problemFor(model, platform)
	if err != nil {
		return nil, err
	}
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		return nil, err
	}
	return o.runEngine(ctx, fp, core.GammaConfig())
}

// traceSearch opens the umbrella "search" span covering an entire
// optimize call — problem assembly included, so setup time lands in the
// report's synthesized "other" row — and returns the closer to defer.
// A no-op closure when tracing is off.
func (o Options) traceSearch() func() {
	if o.Trace == nil {
		return func() {}
	}
	t0 := o.Trace.Now()
	return func() {
		o.Trace.Record(obs.Span{
			Name: obs.PhaseSearch, Cat: obs.CatRun,
			Island: -1, Gen: -1,
			Start: t0, Dur: o.Trace.Now() - t0,
		})
	}
}

// vectorProgress adapts Options.OnProgress to the sample-count reporting
// of the vector baselines (which have no generation structure).
func vectorProgress(o Options) func(samples int, best float64) {
	if o.OnProgress == nil {
		return nil
	}
	return func(samples int, best float64) {
		o.OnProgress(Progress{Samples: samples, Budget: o.Budget, BestFitness: best})
	}
}

// NewProblem exposes the underlying co-optimization problem for callers
// that want to drive searches manually (custom algorithms, ablations).
func NewProblem(model Model, platform Platform, objective Objective) (*Problem, error) {
	return coopt.NewProblem(model, platform, objective)
}
