// Package coopt is the paper's HW-Mapping Co-optimization Framework
// (Fig. 2/3a): it takes a DNN model, an optimization objective, a platform
// area budget and optionally a design constraint (fixed HW or fixed
// mapping), exposes a generic evaluation interface that any optimization
// algorithm can drive, and scores proposed design points with the
// analytical performance model plus a constraint checker.
package coopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/evalcache"
	"digamma/internal/evalstore"
	"digamma/internal/mapping"
	"digamma/internal/opt"
	"digamma/internal/par"
	"digamma/internal/space"
	"digamma/internal/workload"
)

// Objective selects the fitness metric to minimize.
type Objective uint8

// Supported objectives.
const (
	Latency            Objective = iota // total cycles across the model
	Energy                              // total dynamic energy (pJ)
	EDP                                 // energy-delay product
	LatencyAreaProduct                  // cycles × mm², the paper's secondary metric
)

// String returns the objective's display name.
func (o Objective) String() string {
	switch o {
	case Latency:
		return "latency"
	case Energy:
		return "energy"
	case EDP:
		return "edp"
	case LatencyAreaProduct:
		return "latency-area"
	default:
		return fmt.Sprintf("Objective(%d)", uint8(o))
	}
}

// ParseObjective resolves an objective by name.
func ParseObjective(s string) (Objective, error) {
	for _, o := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("coopt: unknown objective %q", s)
}

// invalidBase is the fitness floor assigned to constraint-violating design
// points. It dominates every achievable metric value while still ordering
// violations by severity, so optimizers are pulled back toward
// feasibility.
const invalidBase = 1e18

// Problem is one co-optimization instance.
type Problem struct {
	Model     workload.Model
	Platform  arch.Platform
	Space     space.Space
	Objective Objective

	// FixedHW, when set, switches to the paper's Fixed-HW use-case: the
	// hardware (fanouts, buffer capacities, bandwidths) is given, buffers
	// become capacity constraints, and only mappings are optimized.
	FixedHW *arch.HW

	// MappingRule, when set, switches to the paper's Fixed-Mapping
	// use-case: every candidate's mappings are derived from this rule
	// (a manual style such as NVDLA-like) and only the HW genes are
	// searched. See WithFixedMapping.
	MappingRule MappingRule

	// Cache, when non-nil, memoizes per-layer scores across evaluations,
	// keyed on the low word of the layer's content key (evalstore.ProbeKey
	// over the layer's key context and the probe's fanout and mapping
	// genes), the key the shared tier stores under. The fitness decomposes
	// additively over layers, so layer blocks inherited unchanged between
	// genomes (elites, crossover, untouched layers) skip re-analysis
	// entirely. It holds each analysis's cost.Score (~104 B, carrying its
	// key in Score.Key), copied into slab-allocated entries; caching never
	// changes evaluation values, only their cost. NewProblem enables it by
	// default; set to nil to disable. The key contexts are built with the
	// problem, so callers that mutate FixedHW or Platform directly (rather
	// than via WithFixedHW) get stale keys.
	Cache *evalcache.Intrusive[cost.Score]

	// analyzers holds one precomputed cost.Analyzer per unique layer and
	// mults its float64(layer.Multiplicity()) (so the reduction loop does
	// not copy Layer structs), both aligned with Space.Layers and built by
	// every constructor (initLayers).
	analyzers []cost.Analyzer
	mults     []float64

	// cacheCap bounds every analysis cache this problem family builds
	// (including the fresh caches WithFixedHW/WithBackend copies install);
	// 0 means evalcache.DefaultCapacity. Set by NewProblemSized so short
	// searches don't pay the default cache's fixed allocation on every
	// request.
	cacheCap int

	// EvalDelay, when > 0, sleeps that long once per scored evaluation
	// (inside reduce, the single funnel both the full and the delta path
	// drain into; bound-pruned candidates skip it along with the cost
	// model). It models an expensive evaluation — a remote cost model, a
	// cycle-accurate simulator — without changing any value the search
	// computes: the fitness math never reads it, so results are
	// bit-identical at any delay. The distributed-search benchmarks use it
	// to measure wall-clock scaling honestly on machines whose real
	// evaluation is too cheap to overlap.
	EvalDelay time.Duration

	// backend is the fidelity tier scoring each layer; nil means the
	// default analytical model on the unmodified default code path (so
	// default-path results are structurally bit-identical to a tree that
	// predates backends). Set with WithBackend.
	backend cost.Backend
	// energy holds backend.EffectiveEnergy(Platform.Energy), precomputed
	// by WithBackend; only consulted when backend is non-nil.
	energy arch.EnergyModel

	// shared is the optional cross-request analysis tier behind the
	// private Cache: probed on L1 misses under the same content key, which
	// covers every analysis input, so any two problems — any process, any
	// time — that analyze the same configuration share one result.
	// Sharing never changes evaluation values (analyses are pure), only
	// their cost. Installed with WithShared.
	shared *evalstore.Store
	// contexts holds one precomputed per-layer key context, aligned with
	// Space.Layers, whenever the problem has a Cache or a shared store;
	// rebuilt whenever the backend, fixed HW or store changes (rehash).
	contexts []evalstore.Context
	// sharedHits counts this problem family's own shared-tier hits (the
	// store's counters are process-global, so per-search accounting needs
	// a private tally). Pointer-shared across WithBackend/WithFixedHW
	// copies: one search, one counter.
	sharedHits *atomic.Uint64
}

// Backend reports the problem's fidelity tier (the implicit analytical
// default when WithBackend was never called).
func (p *Problem) Backend() cost.Backend {
	if p.backend == nil {
		return cost.Analytical{}
	}
	return p.backend
}

// WithBackend returns a copy of the problem scored by the given fidelity
// backend, with a fresh evaluation cache, key contexts folding in the
// backend's name (tiers never share a key, even in one cache) and the
// backend's effective energy constants precomputed. A nil backend returns
// the problem unchanged.
func (p *Problem) WithBackend(b cost.Backend) *Problem {
	if b == nil {
		return p
	}
	q := *p
	q.backend = b
	q.energy = b.EffectiveEnergy(p.Platform.Energy)
	if p.Cache != nil {
		q.Cache = q.newScoreCache()
	}
	q.rehash()
	return &q
}

// WithShared returns a copy of the problem backed by the cross-request
// analysis store: L1 cache misses probe st before paying for the cost
// model, and fresh analyses are published back. Results are bit-identical
// with or without the store — the key covers every analysis input — so
// this is purely a performance knob. A nil store returns the problem
// unchanged.
func (p *Problem) WithShared(st *evalstore.Store) *Problem {
	if st == nil {
		return p
	}
	q := *p
	q.shared = st
	q.sharedHits = new(atomic.Uint64)
	q.rehash()
	return &q
}

// SharedHits reports how many per-layer analyses this problem (and its
// WithBackend/WithFixedHW derivatives — they share the counter) recovered
// from the shared store instead of re-running the cost model.
func (p *Problem) SharedHits() uint64 {
	if p.sharedHits == nil {
		return 0
	}
	return p.sharedHits.Load()
}

// Contexts exposes the per-layer key contexts (aligned with Space.Layers)
// for callers building warm-start queries; nil on a problem with neither
// a Cache nor a shared store.
func (p *Problem) Contexts() []evalstore.Context { return p.contexts }

// rehash rebuilds the per-layer key contexts under the shared store's
// fingerprint, or cost.Fingerprint without one. Must run after any change
// to the backend, the fixed HW, the store or the layer set — the contexts
// fold in exactly the analysis inputs that do not vary per probe. A
// problem with no cache to key builds none.
func (p *Problem) rehash() {
	if p.Cache == nil && p.shared == nil {
		p.contexts = nil
		return
	}
	fp := cost.Fingerprint
	if p.shared != nil {
		fp = p.shared.Fingerprint()
	}
	p.contexts = evalstore.NewContexts(fp, p.Backend().Name(), p.Space.Layers, p.FixedHW)
}

// WithFidelity resolves a fidelity tier by name (see cost.BackendNames)
// and returns the problem scored by it. Empty and "analytical" names
// return the problem unchanged — the single place that encodes "the
// default tier is the untouched, backend-nil code path", which the
// facade and the figures protocol both route through.
func (p *Problem) WithFidelity(name string) (*Problem, error) {
	if name == "" || name == "analytical" {
		return p, nil
	}
	b, err := cost.BackendByName(name)
	if err != nil {
		return nil, err
	}
	return p.WithBackend(b), nil
}

// energyModel returns the constants results are priced with: the
// platform's, unless the backend derives its own.
func (p *Problem) energyModel() arch.EnergyModel {
	if p.backend == nil {
		return p.Platform.Energy
	}
	return p.energy
}

// initLayers precomputes the per-layer analysis constants and, for a
// problem with a Cache, its key contexts.
func (p *Problem) initLayers() {
	p.analyzers = make([]cost.Analyzer, len(p.Space.Layers))
	p.mults = make([]float64, len(p.Space.Layers))
	for i, layer := range p.Space.Layers {
		p.analyzers[i] = cost.NewAnalyzer(layer)
		p.mults[i] = float64(layer.Multiplicity())
	}
	p.rehash()
}

// NewProblem assembles a co-optimization problem with the default
// two-level encoding.
func NewProblem(model workload.Model, platform arch.Platform, objective Objective) (*Problem, error) {
	return NewProblemSized(model, platform, objective, 0)
}

// NewProblemSized is NewProblem with the analysis cache bounded to
// roughly cacheEntries from construction (<= 0 means
// evalcache.DefaultCapacity). A search of B evals over L unique layers
// inserts at most B×L analyses, so callers that know their budget should
// bound the cache near that product: the default capacity's fixed
// allocation (512 KiB) otherwise dominates the per-request cost of short
// searches. Purely a performance knob — analyses are pure, so an
// undersized cache re-derives evicted entries with bit-identical values.
func NewProblemSized(model workload.Model, platform arch.Platform, objective Objective, cacheEntries int) (*Problem, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	p := &Problem{
		Model:     model,
		Platform:  platform,
		Space:     space.New(model, platform),
		Objective: objective,
		cacheCap:  cacheEntries,
	}
	p.Cache = p.newScoreCache()
	p.initLayers()
	return p, p.Space.Validate()
}

// WithFixedHW switches the problem into Fixed-HW (mapping-only) mode. A
// hierarchy deeper than cost.MaxLevels is refused with a *cost.DepthError.
func (p *Problem) WithFixedHW(hw arch.HW) (*Problem, error) {
	if err := validFixedHW(hw); err != nil {
		return nil, err
	}
	q := *p
	q.FixedHW = &hw
	q.Space = p.Space.WithFixedHW(hw)
	if p.Cache != nil {
		// The fixed HW changes non-gene analysis inputs (bandwidths, word
		// size), so entries must not be shared with the parent problem.
		q.Cache = q.newScoreCache()
	}
	// The shared tier needs no reset — its keys fold the fixed HW in —
	// but the per-layer contexts must be rebuilt around it.
	q.rehash()
	return &q, nil
}

// validFixedHW checks a given hardware configuration: structurally valid
// and no deeper than a cost.Score holds.
func validFixedHW(hw arch.HW) error {
	if err := cost.CheckDepth(hw.Levels()); err != nil {
		return err
	}
	return hw.Validate()
}

// newScoreCache builds the per-layer score cache, keyed through
// Score.Key.
func (p *Problem) newScoreCache() *evalcache.Intrusive[cost.Score] {
	return evalcache.NewIntrusive(p.cacheCap, func(s *cost.Score) uint64 { return s.Key })
}

// LayerEval pairs one unique layer with its score. Layer points into
// Problem.Space.Layers (stable for the problem's lifetime); treat it as
// immutable. The full cost.Result is not kept: re-analyze the layer for
// it (see cmd/evaluate).
type LayerEval struct {
	Layer *workload.Layer
	Score cost.Score
}

// Evaluation is the scored outcome of one design point.
type Evaluation struct {
	Genome space.Genome
	HW     arch.HW   // derived (co-opt) or given (fixed-HW) hardware
	Area   arch.Area // silicon area of HW

	Valid       bool    // within the area budget / buffer capacities
	Overflow    float64 // constraint violation severity (0 when valid)
	Cycles      float64 // total model latency in cycles
	EnergyPJ    float64 // total dynamic energy
	LatAreaProd float64 // Cycles × Area.Total()
	Fitness     float64 // minimized objective value (includes penalties)

	// Pruned marks a design point that was screened out by its roofline
	// lower bound instead of being scored by the full model: Fitness
	// holds the bound (provably ≤ the true fitness, and already worse
	// than the search's incumbent), and HW, Area, the metric fields and
	// Layers are unset. Only bound-pruned searches produce these; a
	// pruned evaluation is never a search's best.
	Pruned bool

	Layers []LayerEval // per-unique-layer detail

	// scratch backs the derived buffer-requirement vector (ev.HW.BufBytes
	// in co-opt mode), kept across pool recycles so re-scoring into a
	// reused Evaluation allocates nothing.
	scratch []int64
}

// PrunedEvaluation wraps a genome whose fitness lower bound already
// exceeds a search incumbent, so full analysis was skipped.
func PrunedEvaluation(g space.Genome, bound float64) *Evaluation {
	ev := &Evaluation{}
	PrunedInto(ev, g, bound)
	return ev
}

// PrunedInto is PrunedEvaluation writing into a pooled (possibly recycled)
// Evaluation.
func PrunedInto(ev *Evaluation, g space.Genome, bound float64) {
	ev.reset(g, 0)
	ev.Fitness = bound
	ev.Pruned = true
}

// reset clears ev for re-scoring: every scored field zeroed, Layers
// re-sliced to L (entries are fully overwritten by the scorer), and the
// reusable backing (Layers capacity, buffer scratch) kept.
func (ev *Evaluation) reset(g space.Genome, L int) {
	layers := ev.Layers
	if cap(layers) < L {
		layers = make([]LayerEval, L)
	} else {
		layers = layers[:L]
	}
	*ev = Evaluation{Genome: g, Layers: layers, scratch: ev.scratch}
}

// bufScratch returns ev's zeroed n-element buffer-requirement vector,
// reusing the scratch backing when it is big enough.
func (ev *Evaluation) bufScratch(n int) []int64 {
	if cap(ev.scratch) < n {
		ev.scratch = make([]int64, n)
	}
	buf := ev.scratch[:n]
	for i := range buf {
		buf[i] = 0
	}
	ev.scratch = buf
	return buf
}

// Evaluate decodes and scores one genome: it derives the buffer allocation
// (minimum requirement per level, maximized across layers — the paper's
// buffer allocation strategy), runs the performance model on every unique
// layer, applies the area-budget constraint checker, and computes the
// fitness. Per-layer analyses hit the problem's Cache when enabled.
func (p *Problem) Evaluate(g space.Genome) (*Evaluation, error) {
	return p.EvaluateWorkers(g, 1)
}

// EvaluateWorkers is Evaluate with the per-layer analyses fanned out over
// up to workers goroutines — useful for one-shot evaluations of deep
// models, where the layer loop is the only available parallelism. Results
// are bit-identical to the serial path: analyses are pure and the
// reduction always runs in layer order.
func (p *Problem) EvaluateWorkers(g space.Genome, workers int) (*Evaluation, error) {
	g = p.Space.Repair(g) // no-op (and no clone) for already-canonical genomes
	return p.evaluateRepaired(g, workers)
}

// EvaluateCanonical is Evaluate minus the repair pass, for callers that
// guarantee g is exactly what Space.Repair would return — the genetic
// engine qualifies, because repairing is the last step of breeding, and
// the per-genome re-validation was pure overhead on the search hot path.
// A non-canonical genome is still evaluated consistently (the performance
// model validates mappings itself and the cache keys on the genes as
// given, which covers any tile below 2^32), but may score a point outside
// the declared space; external callers should prefer Evaluate.
func (p *Problem) EvaluateCanonical(g space.Genome) (*Evaluation, error) {
	return p.evaluateRepaired(g, 1)
}

// evaluateRepaired scores a canonical genome into a fresh Evaluation.
func (p *Problem) evaluateRepaired(g space.Genome, workers int) (*Evaluation, error) {
	ev := &Evaluation{Genome: g, Layers: make([]LayerEval, len(p.Space.Layers))}
	if err := p.scoreFull(ev, workers); err != nil {
		return nil, err
	}
	return ev, nil
}

// EvaluateCanonicalInto is EvaluateCanonical scoring into a caller-owned
// (typically pooled, possibly recycled) Evaluation, serially. Every scored
// field is rewritten; only the Layers capacity and buffer scratch survive
// from a previous life.
func (p *Problem) EvaluateCanonicalInto(ev *Evaluation, g space.Genome) error {
	ev.reset(g, len(p.Space.Layers))
	return p.scoreFull(ev, 1)
}

// EvaluateDelta scores a canonical child genome given its breeding
// parent's evaluation and the dirty set the operators recorded, writing
// into ev. Clean layers copy the parent's per-layer scores — skipping
// the content key, the cache probe and the cost model entirely — and
// only dirty layers are re-analyzed before the ordinary reduction
// re-derives buffers, constraints and fitness.
//
// The result is bit-identical to EvaluateCanonical: per-layer analyses
// are pure functions of (fanouts, mapping block), the dirty set
// conservatively covers every gene the child does not share with its
// parent, and the reduction runs the same float operations in the same
// order either way (the delta determinism suite pins this across
// backends, objectives and constraint modes).
//
// Returns the number of per-layer analyses reused from the parent, or -1
// when the delta path was ineligible — nil/pruned parent, HW genes or
// clustering depth touched, a mapping rule in force — and a full
// evaluation ran instead.
func (p *Problem) EvaluateDelta(ev *Evaluation, g space.Genome, parent *Evaluation, d space.Dirty) (int, error) {
	L := len(p.Space.Layers)
	if parent == nil || parent.Pruned || len(parent.Layers) != L ||
		d.Full() || p.MappingRule != nil {
		return -1, p.EvaluateCanonicalInto(ev, g)
	}
	ev.reset(g, L)
	hw, bufReq := p.prepareHW(ev)
	reused := 0
	for li := 0; li < L; li++ {
		if d.Layer(li) {
			ev.Layers[li].Layer = &p.Space.Layers[li]
			if err := p.analyzeLayer(hw, g, li, &ev.Layers[li].Score); err != nil {
				return -1, err
			}
		} else {
			// Value copy of (layer ptr, score): the parent may be recycled
			// later without invalidating the child.
			ev.Layers[li] = parent.Layers[li]
			reused++
		}
	}
	if err := p.reduce(ev, hw, bufReq); err != nil {
		return -1, err
	}
	return reused, nil
}

// prepareHW derives the hardware configuration analyses run against, plus
// the buffer-requirement accumulator the reduction fills (backed by ev's
// scratch so pooled evaluations allocate nothing).
func (p *Problem) prepareHW(ev *Evaluation) (arch.HW, []int64) {
	g := ev.Genome
	bufReq := ev.bufScratch(g.Levels())
	var hw arch.HW
	if p.FixedHW != nil {
		hw = p.FixedHW.Defaults()
	} else {
		// Fanouts are shared with the genome, not copied: genomes are
		// immutable once evaluated (the engine breeds copy-on-write).
		// bufReq stands in for the not-yet-derived buffer allocation so
		// the configuration is structurally valid during analysis, and is
		// filled with the derived capacities by the reduction.
		hw = arch.HW{
			Fanouts:  g.Fanouts,
			BufBytes: bufReq,
		}.Defaults()
	}
	if p.backend != nil {
		// The backend derives hardware parameters (the physical tier
		// installs its NoC and DRAM models) before analysis; BufBytes
		// still aliases bufReq.
		hw = p.backend.PrepareHW(hw)
	}
	return hw, bufReq
}

// scoreFull scores ev.Genome (canonical) into ev from scratch: hardware
// setup, per-layer analyses (cache-assisted, fanned across workers) and
// the reduction. ev.Layers must be pre-sized to the problem's layer count
// and every other scored field zeroed.
func (p *Problem) scoreFull(ev *Evaluation, workers int) error {
	hw, bufReq := p.prepareHW(ev)

	if p.MappingRule != nil {
		// Private Maps header first: Repair no longer clones canonical
		// genomes, so writing the rule's derivations through the shared
		// header would mutate the caller's genome.
		g := ev.Genome
		g.Maps = append([]mapping.Mapping(nil), g.Maps...)
		p.applyMappingRule(hw, g.Maps)
		ev.Genome = g
	}

	if err := p.analyzeLayers(hw, ev.Genome, ev.Layers, workers); err != nil {
		return err
	}
	return p.reduce(ev, hw, bufReq)
}

// reduce aggregates ev.Layers into the model-level metrics, derives the
// buffer allocation (minimum requirement per level, maximized across
// layers — the paper's buffer allocation strategy), applies the
// constraint checkers and computes the fitness. Runs in layer order
// unconditionally, so full and delta evaluations reduce identically.
func (p *Problem) reduce(ev *Evaluation, hw arch.HW, bufReq []int64) error {
	if p.EvalDelay > 0 {
		// Priced evaluation: one sleep per scored point, before any state
		// is written, so the delay can never interleave with the math.
		time.Sleep(p.EvalDelay)
	}
	layers := p.Space.Layers
	bufferViolation := 0.0
	bpw := int64(hw.BytesPerWord)
	em := p.energyModel()

	for li := range layers {
		sc := &ev.Layers[li].Score
		n := p.mults[li]
		ev.Cycles += sc.Cycles * n
		ev.EnergyPJ += sc.EnergyPJ(em) * n

		// Double-buffered per-level requirement, maximized across layers
		// (the arithmetic of Result.BufReqBytes, allocation-free).
		for l := 0; l < sc.Levels; l++ {
			if b := int64(math.Ceil(sc.Buffer[l])) * 2 * bpw; b > bufReq[l] {
				bufReq[l] = b
			}
		}
	}

	if p.FixedHW != nil {
		// Buffers are capacities: overflowing layers invalidate the point.
		for l, need := range bufReq {
			if have := hw.BufBytes[l]; need > have && have > 0 {
				bufferViolation += float64(need-have) / float64(have)
			}
		}
	} else {
		// Buffer allocation strategy: allocate exactly the requirement.
		hw.BufBytes = bufReq
	}
	ev.HW = hw
	ev.Area = p.Platform.Area.Area(hw)
	ev.LatAreaProd = ev.Cycles * ev.Area.Total()

	areaOverflow := p.Platform.Overflow(hw)
	if p.FixedHW != nil {
		// In fixed-HW mode the given hardware defines feasibility; only
		// buffer capacity can be violated.
		areaOverflow = 0
	}
	ev.Overflow = areaOverflow + bufferViolation
	ev.Valid = ev.Overflow == 0

	switch {
	case !ev.Valid:
		ev.Fitness = invalidBase * (1 + ev.Overflow)
	case p.Objective == Latency:
		ev.Fitness = ev.Cycles
	case p.Objective == Energy:
		ev.Fitness = ev.EnergyPJ
	case p.Objective == EDP:
		ev.Fitness = ev.EnergyPJ * ev.Cycles
	case p.Objective == LatencyAreaProduct:
		ev.Fitness = ev.LatAreaProd
	default:
		return fmt.Errorf("coopt: unsupported objective %v", p.Objective)
	}
	return nil
}

// analyzeLayer scores one unique layer of g on hw into dst, consulting the
// private cache first, then the shared cross-request tier, and publishing
// fresh scores into both. One content key serves both tiers: the L1 keys
// on its low word, which every score either tier returns carries as its
// Key, so a shared hit goes into the L1 as it is. Scores are written in
// place: a copy of one is most of what an L1 hit costs.
func (p *Problem) analyzeLayer(hw arch.HW, g space.Genome, li int, dst *cost.Score) error {
	var k evalstore.Key
	if p.Cache != nil || p.shared != nil {
		k = evalstore.ProbeKey(&p.contexts[li], g.Fanouts, g.Maps[li])
		if p.Cache != nil {
			if sc, ok := p.Cache.Get(k.Lo); ok {
				*dst = *sc
				return nil
			}
		}
		if p.shared != nil {
			var ok bool
			if *dst, ok = p.shared.Get(k); ok {
				p.sharedHits.Add(1)
				if p.Cache != nil {
					p.Cache.Put(*dst)
				}
				return nil
			}
		}
	}
	// Genomes reaching this point are repaired and hw is backend-prepared,
	// exactly the trusted-analysis contract.
	var err error
	if p.backend != nil {
		var r *cost.Result
		if r, err = p.backend.Analyze(&p.analyzers[li], hw, g.Maps[li]); err == nil {
			*dst = r.Score()
		}
	} else {
		*dst, err = p.analyzers[li].ScoreTrusted(hw, g.Maps[li])
	}
	if err != nil {
		return fmt.Errorf("coopt: layer %s: %w", p.Space.Layers[li].Name, err)
	}
	dst.Key = k.Lo
	if p.Cache != nil {
		p.Cache.Put(*dst)
	}
	if p.shared != nil {
		p.shared.Put(k, *dst)
	}
	return nil
}

// analyzeLayers fills out[li] with the performance-model score of every
// unique layer, fanning out across workers when asked. Each out slot is
// written by exactly one goroutine, so no synchronization beyond the
// cache's own is needed.
func (p *Problem) analyzeLayers(hw arch.HW, g space.Genome, out []LayerEval, workers int) error {
	layers := p.Space.Layers
	return par.For(len(layers), workers, func(li int) error {
		out[li].Layer = &layers[li]
		return p.analyzeLayer(hw, g, li, &out[li].Score)
	})
}

// FitnessBound returns a provable lower bound on Evaluate(g).Fitness for a
// canonical genome, at a few float operations per layer: the per-layer
// roofline bounds (cost.Analyzer.LowerBound) reduced under the problem's
// objective, with compute area standing in for total area. Search engines
// use it to skip full analysis of candidates whose bound already exceeds
// an incumbent (core.Config.Prune); pruning on it never discards a point
// that could have beaten the incumbent. The bound is capped at the
// invalid-fitness floor so constraint-violating points (whose fitness is a
// penalty, not a metric) can never be out-bounded.
func (p *Problem) FitnessBound(g space.Genome) float64 {
	var hw arch.HW
	if p.FixedHW != nil {
		hw = p.FixedHW.Defaults()
	} else {
		hw = arch.HW{Fanouts: g.Fanouts}.Defaults()
	}
	if p.backend != nil {
		hw = p.backend.PrepareHW(hw)
	}
	levels := hw.Levels()
	needEnergy := p.Objective == Energy || p.Objective == EDP
	em := p.energyModel()
	var cyc, en float64
	for li := range p.analyzers {
		a := &p.analyzers[li]
		var m mapping.Mapping
		if p.MappingRule == nil && li < len(g.Maps) {
			// The genome's own block tightens the compute term through
			// its occupancy; rule-derived mappings are decoded only at
			// evaluation time, so they fall back to the HW-only bound.
			m = g.Maps[li]
		}
		b := a.LowerBound(hw, m)
		cyc += b.Cycles * p.mults[li]
		if needEnergy {
			en += b.EnergyPJ(levels, em) * p.mults[li]
		}
	}
	var bound float64
	switch p.Objective {
	case Latency:
		bound = cyc
	case Energy:
		bound = en
	case EDP:
		bound = en * cyc
	case LatencyAreaProduct:
		// Compute area alone lower-bounds total area: derived buffers
		// and NoC wiring only add to it.
		bound = cyc * float64(hw.NumPEs()) * p.Platform.Area.PEUm2 / 1e6
	default:
		return 0
	}
	// The bound re-associates the same float products the model computes
	// level by level; shave an epsilon so rounding can never nudge it
	// past the true fitness.
	return math.Min(bound*(1-1e-12), invalidBase)
}

// VectorObjective adapts the problem to the continuous optimizer interface:
// decode the vector, evaluate, return fitness. Decode errors (impossible
// with correctly sized vectors) surface as +Inf.
func (p *Problem) VectorObjective() opt.Objective {
	return func(x []float64) float64 {
		g, err := p.Space.Decode(x)
		if err != nil {
			return math.Inf(1)
		}
		ev, err := p.Evaluate(g)
		if err != nil {
			return math.Inf(1)
		}
		return ev.Fitness
	}
}

// RunVector drives a generic optimizer over the problem for the given
// sampling budget and returns the best evaluation.
func (p *Problem) RunVector(o opt.Optimizer, budget int, seed int64) (*Evaluation, error) {
	return p.RunVectorContext(context.Background(), o, budget, seed, nil)
}

// cancelSignal aborts a Minimize call from inside the wrapped objective —
// the generic optimizer interface has no cancellation channel of its own,
// so RunVectorContext panics past it and recovers on the way out.
type cancelSignal struct{ samples int }

// RunVectorContext is RunVector with cooperative cancellation and optional
// progress reporting. The objective is wrapped with a per-probe context
// check: once ctx is done the wrapper unwinds the optimizer immediately
// (via a recovered sentinel panic) and the run reports ctx.Err().
// progress, when non-nil, is called from the search goroutine roughly once
// per generation-equivalent (every max(1, budget/50) evaluations) with the
// number of samples spent and the best fitness seen. Runs that complete
// without cancellation are bit-identical to RunVector: the wrapper forwards
// objective values untouched and draws nothing from the RNG.
func (p *Problem) RunVectorContext(ctx context.Context, o opt.Optimizer, budget int, seed int64,
	progress func(samples int, bestFitness float64)) (ev *Evaluation, err error) {
	if budget < 1 {
		return nil, errors.New("coopt: non-positive budget")
	}
	stride := budget / 50
	if stride < 1 {
		stride = 1
	}
	obj := p.VectorObjective()
	samples := 0
	best := math.Inf(1)
	wrapped := func(x []float64) float64 {
		if ctx.Err() != nil {
			panic(cancelSignal{samples})
		}
		v := obj(x)
		samples++
		if v < best {
			best = v
		}
		if progress != nil && samples%stride == 0 {
			progress(samples, best)
		}
		return v
	}
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(cancelSignal)
			if !ok {
				panic(r)
			}
			ev, err = nil, fmt.Errorf("coopt: search cancelled after %d samples: %w", sig.samples, ctx.Err())
		}
	}()
	rng := newRand(seed)
	x, _ := o.Minimize(wrapped, p.Space.Dim(), budget, rng)
	g, err := p.Space.Decode(x)
	if err != nil {
		return nil, err
	}
	ev, err = p.Evaluate(g)
	if err != nil {
		return nil, err
	}
	// The returned best may be retained long after the run (the serving
	// job store); detach it from the search's allocators.
	return ev.Detach(), nil
}

// EvaluateMapping scores a complete per-layer mapping set against a fixed
// hardware configuration without any search — used by the fixed-mapping
// baseline schemes.
func EvaluateMapping(modelLayers []workload.Layer, hw arch.HW, maps []mapping.Mapping,
	platform arch.Platform, objective Objective) (*Evaluation, error) {
	return EvaluateMappingWorkers(modelLayers, hw, maps, platform, objective, 1)
}

// EvaluateMappingWorkers is EvaluateMapping with the per-layer analyses
// spread over up to workers goroutines (≤ 1 = serial; results identical).
func EvaluateMappingWorkers(modelLayers []workload.Layer, hw arch.HW, maps []mapping.Mapping,
	platform arch.Platform, objective Objective, workers int) (*Evaluation, error) {
	return EvaluateMappingBackend(modelLayers, hw, maps, platform, objective, workers, nil)
}

// EvaluateMappingBackend is EvaluateMappingWorkers scored by an explicit
// fidelity backend (nil = the analytical default). A hierarchy deeper than
// cost.MaxLevels is refused with a *cost.DepthError.
func EvaluateMappingBackend(modelLayers []workload.Layer, hw arch.HW, maps []mapping.Mapping,
	platform arch.Platform, objective Objective, workers int, backend cost.Backend) (*Evaluation, error) {
	if len(maps) != len(modelLayers) {
		return nil, fmt.Errorf("coopt: %d mappings for %d layers", len(maps), len(modelLayers))
	}
	// One-shot path: validate the caller's hardware up front (the trusted
	// analyzer fast path no longer re-validates per layer).
	if err := validFixedHW(hw); err != nil {
		return nil, err
	}
	p := &Problem{
		Platform:  platform,
		Objective: objective,
		Space:     space.Space{Layers: modelLayers, Levels: hw.Levels(), MaxFanout: 1},
		FixedHW:   &hw,
	}
	p.Space = p.Space.WithFixedHW(hw)
	p.initLayers()
	p = p.WithBackend(backend)
	return p.EvaluateWorkers(space.Genome{Fanouts: hw.Fanouts, Maps: maps}, workers)
}
