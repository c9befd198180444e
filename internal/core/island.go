package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"digamma/internal/coopt"
	"digamma/internal/mapping"
	"digamma/internal/obs"
	"digamma/internal/par"
	"digamma/internal/space"
	"digamma/internal/workload"
)

// island is the extracted unit of the genetic search: one semi-isolated
// population together with everything its generation loop touches — the
// RNG stream, the profile-applied operator rates, the scoring problem and
// the pruning state. Engine.RunContext coordinates K of them in lockstep
// (K = 1 reproduces the classic single-population engine bit-for-bit: the
// sole island runs on the engine's master stream with the base Config).
//
// Everything an island mutates is island-private — cur, rng, best,
// samples, the evaluation pool and the breeding arenas — so K islands
// breed and evaluate concurrently with no synchronization between them,
// and results are a pure function of (Seed, Islands, MigrateEvery,
// Profiles), never of Workers.
type island struct {
	id  int
	cfg Config // base Config with this island's profile applied

	// rng is the island's private stream. Island 0 of a single-island run
	// uses the engine's master stream unchanged (bit-identical to the
	// pre-island engine); multi-island runs derive one seed per island
	// from the master stream before any search work.
	rng *rand.Rand
	// src is rng's draw-counting source: its position is what checkpoints
	// record and restore fast-forwards.
	src *replaySource
	// seed is the island's stream seed as drawn from the master stream
	// (multi-island runs only; 0 for the single island, which runs on the
	// engine's master stream directly). A distributed worker re-derives
	// the same seeds from the run seed and cross-checks them against the
	// coordinator's assignment, catching divergent builds at handshake
	// time instead of as silently different results.
	seed int64

	// prob scores this island's population: the engine's problem, except
	// for scout islands, which screen on the "bound" fidelity tier.
	prob *coopt.Problem
	// full is the engine's full-fidelity problem, used to re-score a scout
	// island's elites at migration time. full == prob for normal islands.
	full *coopt.Problem
	// scout mirrors Profile.Scout: bound-tier population, export-only
	// migration, never the reported best.
	scout bool

	cur    []individual
	alt    []individual // spare population buffer, swapped with cur at install
	pop    int          // individuals per generation (≤ cfg.PopSize, ≤ budget)
	elites int          // carried over unchanged each generation

	// best is the incumbent fitness the pruning screen compares bounds
	// against. It lives entirely on the island's step: newBatch snapshots
	// it into the batch before any scoring starts, so batch workers never
	// touch it — a mid-batch read from a worker would be a data race AND
	// would break the per-batch pruning determinism.
	best float64

	budget  int // this island's share of the run's sampling budget
	samples int // spent so far, including migration re-scores

	// warm holds the engine's Config.Warm genomes when this island is the
	// run's designated warm-start target (the first full-fidelity island);
	// initialGenomes plants them in place of its last random draws.
	warm []space.Genome

	// pool hands out Evaluation buffers (chunked slabs + freelist);
	// recycle gates the freelist on "nothing outside the island can hold
	// a dropped evaluation" — false whenever an OnEvaluation hook may
	// have retained one.
	pool    *coopt.EvalPool
	recycle bool
	// poolGetBias/poolReuseBias re-base the pool's counters onto a resumed
	// run's cumulative totals (a restored island's pool restarts from the
	// rebuilt population, not from zero evaluations ago). Zero on a fresh
	// run — pure telemetry, never consulted by the search.
	poolGetBias   uint64
	poolReuseBias uint64

	// Per-generation breeding buffers, reused across generations: the
	// bred children, each child's breeding parent (its evaluation seeds
	// the delta path) and the operator-recorded dirty set, plus the
	// evaluation output row and the per-slot delta accounting
	// (reused[i] ≥ 0 delta with that many layers cloned, -1 full
	// evaluation, -2 bound-pruned; written one slot per batch worker,
	// summed serially) and the crew path's per-slot errors.
	children []space.Genome
	parents  []*coopt.Evaluation
	dirt     []space.Dirty
	evals    []*coopt.Evaluation
	reused   []int32
	errs     []error

	// Breeding arenas: chunked backing stores for the genome headers and
	// mapping blocks children allocate. Blocks are shared copy-on-write
	// across generations, so arenas only ever advance (dead chunks are
	// reclaimed by the GC once no genome references them); the win is one
	// slab allocation amortizing dozens of header/block allocations.
	levelArena  []mapping.Level
	fanoutArena []int
	mapsArena   []mapping.Mapping

	// Delta accounting, summed into Result by the coordinator.
	deltaEvals int // children scored by the delta path
	// layersReused counts per-layer analyses recovered without running the
	// cost model: those children's clones from their breeding parents,
	// plus cache-tier hits while a scout re-scores its exports.
	layersReused int

	// Tracing (trace == engine.Trace, non-nil when traced): profile is the
	// island's profile name for report attribution, ops records each bred
	// child's operator mask (one byte per slot, reused across generations)
	// so the coordinator can co-attribute fitness improvements, and bredAt
	// is when breedEvaluate bred its last child — the boundary between a
	// generation's breed and evaluate spans. The masks are computed for
	// free in branches breed already takes; untraced they are discarded
	// and the buffer never allocates.
	trace   *obs.Tracer
	profile string
	ops     []obs.OpMask
	bredAt  time.Duration
}

// newIsland assembles one island: profile applied on top of the engine's
// Config (with the fixed-HW / fixed-mapping rate fixups re-asserted, so a
// profile can never re-enable an operator the problem forbids), the
// scoring problem resolved (scouts screen on the bound tier), and the
// population sized to popTarget — the island's slice of the run's global
// population — clamped to its budget share.
func newIsland(e *Engine, id int, pr Profile, rng *rand.Rand, popTarget, budget int) (*island, error) {
	cfg := e.Config
	if pr.apply != nil {
		pr.apply(&cfg)
	}
	if cfg.FixedHW {
		cfg.MutHWRate, cfg.GrowRate, cfg.AgeRate = 0, 0, 0
	}
	if e.Problem.MappingRule != nil {
		cfg.GrowRate, cfg.AgeRate = 0, 0
	}

	prob := e.Problem
	if pr.Scout {
		var err error
		if prob, err = e.Problem.WithFidelity("bound"); err != nil {
			return nil, err
		}
		// Pruning against the roofline bound is pointless when the island
		// already scores *on* the bound.
		cfg.Prune = false
	}

	cfg.PopSize = popTarget
	pop := min(cfg.PopSize, budget)
	is := &island{
		id:     id,
		cfg:    cfg,
		rng:    rng,
		prob:   prob,
		full:   e.Problem,
		scout:  pr.Scout,
		pop:    pop,
		elites: min(max(int(float64(pop)*cfg.EliteFrac), 1), pop),
		best:   math.Inf(1), // no incumbent yet: the first batch is never pruned
		budget: budget,
		pool:   coopt.NewEvalPool(),
		// Recycling dropped evaluations is safe only while the engine is
		// the sole holder; an OnEvaluation hook may retain them.
		recycle: e.OnEvaluation == nil,
		trace:   e.Trace,
	}
	if is.trace != nil {
		if is.profile = pr.Name; is.profile == "" {
			is.profile = "default"
		}
	}
	return is, nil
}

// initialGenomes draws the island's starting population: a quarter
// conservative seeds (minimal tiles with spatial coverage of the widest
// dims — cheap on buffers, so almost always feasible, mirroring GAMMA's
// valid-first initialization), the rest random genomes at the base
// clustering depth. Genomes are drawn serially (the island's RNG stream
// fixes them); the caller evaluates them as one batch so the first
// generation parallelizes like every later one.
func (is *island) initialGenomes() []space.Genome {
	cfg := is.cfg
	baseLevels := is.prob.Space.Levels
	seeds := int(float64(is.pop) * cfg.SeedFrac)
	if seeds < 1 && cfg.SeedFrac > 0 {
		seeds = 1
	}
	// Warm-start genomes take the tail slots — after the conservative
	// seeds, displacing random draws only — so a warm population keeps
	// the classic multi-start diversity. The displaced slots draw no RNG,
	// which shifts the island's stream: warm start deliberately changes
	// the trajectory (it is opt-in and dedup-hashed upstream), but stays
	// a pure function of (seed, warm set).
	warm := min(len(is.warm), is.pop-seeds)
	initial := make([]space.Genome, 0, is.pop)
	for i := 0; i < is.pop; i++ {
		var g space.Genome
		switch {
		case i < seeds:
			// The variant is offset by the island id so the ring starts
			// from K disjoint conservative designs (multi-start
			// diversity); island 0 — hence any single-island run — keeps
			// the classic variants exactly.
			g = is.seedGenome(i + is.id*seeds)
		case is.pop-i <= warm:
			// Prior results come from outside this search: repair against
			// this problem's space before the budget clamp below.
			g = is.prob.Space.Repair(is.warm[warm-(is.pop-i)])
		default:
			g = is.prob.Space.Random(is.rng, baseLevels)
		}
		if !cfg.FixedHW {
			g = is.repairHWBudget(g, nil)
		}
		initial = append(initial, g)
	}
	return initial
}

// install merges a batch of evaluated genomes into the population (the
// initial batch, or a generation's children after the first keepN
// incumbents). Dropped individuals' evaluations return to the island's
// pool when recycling is allowed; the population buffers double-swap so
// the loop stops allocating after the first generation.
func (is *island) install(keepN int, gs []space.Genome, evs []*coopt.Evaluation) {
	next := is.alt[:0]
	next = append(next, is.cur[:keepN]...)
	for i, ev := range evs {
		next = append(next, individual{gs[i], ev})
	}
	if is.recycle {
		for _, ind := range is.cur[keepN:] {
			is.pool.Recycle(ind.eval)
		}
	}
	is.alt = is.cur[:0]
	is.cur = next
}

// begin sorts the population and advances the pruning incumbent — the
// head of every generation body. A body is the same island methods under
// both drivers (see shard.go): begin, then at a boundary exportElites and
// receiveMigrants, then breedEvaluate and install.
func (is *island) begin() {
	is.sortPop()
	is.best = is.cur[0].eval.Fitness
}

// exportElites is the export half of a migration boundary: the island's
// elites in the AppendStates encoding. A scout's elites are first
// re-scored by the run's full-fidelity model so they migrate at
// comparable fitness — bound-tier fitnesses never leak into a
// full-fidelity population. The re-scores spend the island's remaining budget share (elites it cannot
// afford are dropped, a cut that depends only on the sample counters),
// onEval books each one at run level, and the per-layer analyses the
// cache tiers recovered count into layersReused. gen labels the re-score
// trace span.
func (is *island) exportElites(gen int, onEval func(*coopt.Evaluation)) ([]byte, error) {
	sel := is.cur[:min(is.elites, len(is.cur))]
	if !is.scout {
		return appendIndividuals(nil, sel), nil
	}
	t0 := is.trace.Now()
	h0 := is.full.SharedHits()
	var l0 uint64
	if is.full.Cache != nil {
		l0, _ = is.full.Cache.Lookups()
	}
	rescored := make([]individual, min(len(sel), max(is.budget-is.samples, 0)))
	for i := range rescored {
		ev, err := is.full.EvaluateCanonical(sel[i].genome)
		if err != nil {
			return nil, err
		}
		is.samples++
		onEval(ev)
		rescored[i] = individual{sel[i].genome, ev}
	}
	recovered := int(is.full.SharedHits() - h0)
	if is.full.Cache != nil {
		l1, _ := is.full.Cache.Lookups()
		recovered += int(l1 - l0)
	}
	is.layersReused += recovered
	if is.trace != nil {
		is.trace.Record(obs.Span{
			Name: obs.PhaseRescore, Cat: obs.CatPhase,
			Island: int32(is.id), Gen: int32(gen),
			Start: t0, Dur: is.trace.Now() - t0,
			N: int32(len(rescored)), Delta: int32(recovered),
		})
	}
	return appendIndividuals(nil, rescored), nil
}

// receiveMigrants is the receive half of a migration boundary. The
// batches are applied in ascending source order through one replacement
// cursor that walks up from the worst slot and never takes slot 0 (the
// island's own best), so several sources funnelling into one island never
// clobber each other. Each migrant is rebuilt from its bytes into the
// island's pool, so no evaluation is ever shared between populations.
// The population is re-sorted afterwards, so it must run on every island
// at every boundary, with no batches for islands that receive nothing.
func (is *island) receiveMigrants(batches []MigrantBatch) error {
	sort.Slice(batches, func(a, b int) bool { return batches[a].From < batches[b].From })
	replaceAt := len(is.cur) - 1
	for _, b := range batches {
		elites, err := DecodeStates(b.Elites)
		if err != nil {
			return fmt.Errorf("core: migrants from island %d for island %d: %w", b.From, is.id, err)
		}
		for i := range elites {
			if replaceAt < 1 {
				break
			}
			ind, err := is.rebuild(&elites[i])
			if err != nil {
				return fmt.Errorf("core: migrant from island %d for island %d: %w", b.From, is.id, err)
			}
			if is.recycle {
				// The overwritten individual leaves the run here, exactly
				// like an install-time drop.
				is.pool.Recycle(is.cur[replaceAt].eval)
			}
			is.cur[replaceAt] = ind
			replaceAt--
		}
	}
	is.sortPop()
	return nil
}

// sortPop orders the population best-first. Deterministic for a given
// population order, so results never depend on worker counts.
func (is *island) sortPop() {
	sort.Slice(is.cur, func(a, b int) bool { return is.cur[a].eval.Fitness < is.cur[b].eval.Fitness })
}

// breedEvaluate is one generation's breeding half: it breeds the brood
// serially on the island's RNG stream (which fixes the children), capped
// by the remaining budget share, and scores it, returning the brood's
// evaluations (empty once the budget share is spent: the island idles).
//
// With a crew, each child is published for scoring as soon as it is bred,
// so the crew's helpers evaluate the first children while the breeder is
// still producing the rest; the breeder joins the scoring once the brood
// is complete. Without one the brood is bred, then scored across workers
// goroutines that exit when the batch is done: an island with a single
// worker, and ShardRunner, whose worker processes often share a host's
// cores, where spinning helpers would steal them from each other. Results
// are identical either way: breeding reads only the installed population
// and writes only its own slots and arenas, evaluation is pure and writes
// only its own slot, the prune incumbent is snapshotted before the step,
// and pool buffers are acquired on the breeder in slot order.
//
// is.bredAt records when the last child was bred, splitting the step's
// breed and evaluate trace spans.
func (is *island) breedEvaluate(c *crew, workers int) ([]*coopt.Evaluation, error) {
	n := min(is.pop-is.elites, is.budget-is.samples)
	if n <= 0 {
		return nil, nil
	}
	is.children = growSlice(is.children, n)
	is.parents = growSlice(is.parents, n)
	is.dirt = growSlice(is.dirt, n)
	if is.trace != nil {
		is.ops = growSlice(is.ops, n)
	}
	if c == nil {
		for i := range n {
			is.breedOne(i)
		}
		is.bredAt = is.trace.Now()
		return is.evaluateBatch(is.children[:n], is.parents[:n], is.dirt[:n], workers)
	}
	is.errs = growSlice(is.errs, n)
	br := &brood{
		batch: is.newBatch(is.children[:n], is.parents[:n], is.dirt[:n]),
		errs:  is.errs[:n],
		fin:   make(chan struct{}),
	}
	br.left.Store(int64(n))
	c.publish(br)
	for i := range n {
		is.breedOne(i)
		br.out[i] = is.pool.Get()
		br.published.Store(int64(i + 1))
	}
	is.bredAt = is.trace.Now()
	if err := br.join(); err != nil {
		return nil, err
	}
	is.tally(br.reused)
	return br.out, nil
}

// breedOne breeds brood slot i: the child, its breeding parent's
// evaluation (which seeds the delta path), the operators' dirty set and,
// when traced, the operator mask.
func (is *island) breedOne(i int) {
	is.dirt[i] = space.Dirty{}
	child, parent, mask := is.breed(&is.dirt[i])
	is.children[i], is.parents[i] = child, parent
	if is.trace != nil {
		is.ops[i] = mask
	}
}

// growSlice resizes buf to n elements, reusing its backing when possible.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// batch is one evaluation batch: slot i scores gs[i] into out[i] and
// records how in reused[i] (≥ 0 delta with that many layers cloned, -1
// full evaluation, -2 bound-pruned). parents/dirt, when non-nil, carry
// each child's breeding parent and the operators' dirty set: candidates
// take the delta path, cloning the parent's analyses for clean layers
// (bit-identical to a full evaluation; disabled by Config.NoDelta). Under
// cfg.Prune, candidates whose fitness lower bound already exceeds the
// incumbent best skip the cost model entirely and carry the bound
// instead; the incumbent is frozen when the batch is built, so pruning
// decisions are deterministic too.
type batch struct {
	prob      *coopt.Problem
	gs        []space.Genome
	parents   []*coopt.Evaluation
	dirt      []space.Dirty
	out       []*coopt.Evaluation
	reused    []int32
	prune     bool
	threshold float64
	delta     bool
}

// newBatch sizes the island's output rows for len(gs) slots and freezes
// the prune incumbent. The caller fills out with pool buffers.
func (is *island) newBatch(gs []space.Genome, parents []*coopt.Evaluation, dirt []space.Dirty) batch {
	is.evals = growSlice(is.evals, len(gs))
	is.reused = growSlice(is.reused, len(gs))
	return batch{
		prob:      is.prob,
		gs:        gs,
		parents:   parents,
		dirt:      dirt,
		out:       is.evals[:len(gs)],
		reused:    is.reused[:len(gs)],
		prune:     is.cfg.Prune && !math.IsInf(is.best, 1),
		threshold: is.best,
		delta:     parents != nil && !is.cfg.NoDelta,
	}
}

// score evaluates slot i. Pure apart from writing out[i] and reused[i],
// so slots may be scored concurrently and in any order.
func (b *batch) score(i int) error {
	if b.prune {
		if bound := b.prob.FitnessBound(b.gs[i]); bound > b.threshold {
			coopt.PrunedInto(b.out[i], b.gs[i], bound)
			b.reused[i] = -2
			return nil
		}
	}
	if b.delta {
		n, err := b.prob.EvaluateDelta(b.out[i], b.gs[i], b.parents[i], b.dirt[i])
		b.reused[i] = int32(n)
		return err
	}
	b.reused[i] = -1
	return b.prob.EvaluateCanonicalInto(b.out[i], b.gs[i])
}

// tally folds a scored batch's per-slot delta accounting into the
// island's counters.
func (is *island) tally(reused []int32) {
	for _, n := range reused {
		if n >= 0 {
			is.deltaEvals++
			is.layersReused += int(n)
		}
	}
}

// evaluateBatch scores a slice of genomes against the island's problem,
// fanning out across workers goroutines when configured, into pooled
// Evaluation buffers acquired serially up front (the pool is not
// concurrency-safe; the workers only fill their own slot). Evaluation is
// pure, so the result slice is identical regardless of worker count. It
// scores the initial population, and a generation's brood when
// breedEvaluate runs without a crew.
func (is *island) evaluateBatch(gs []space.Genome, parents []*coopt.Evaluation, dirt []space.Dirty, workers int) ([]*coopt.Evaluation, error) {
	b := is.newBatch(gs, parents, dirt)
	for i := range gs {
		b.out[i] = is.pool.Get()
	}
	if err := par.For(len(gs), workers, b.score); err != nil {
		return nil, err
	}
	is.tally(b.reused)
	return b.out, nil
}

// takeLevels carves an owned, cap==len block of n levels from the
// island's arena (one slab allocation amortizes many blocks). cap==len
// matters: a later structural append must reallocate rather than scribble
// over the next block.
func (is *island) takeLevels(n int) []mapping.Level {
	if len(is.levelArena) < n {
		is.levelArena = make([]mapping.Level, max(512, n))
	}
	s := is.levelArena[:n:n]
	is.levelArena = is.levelArena[n:]
	return s
}

// takeFanouts carves an owned cap==len fanout vector from the arena.
func (is *island) takeFanouts(n int) []int {
	if len(is.fanoutArena) < n {
		is.fanoutArena = make([]int, max(256, n))
	}
	s := is.fanoutArena[:n:n]
	is.fanoutArena = is.fanoutArena[n:]
	return s
}

// takeMaps carves an owned cap==len mapping header slice from the arena.
func (is *island) takeMaps(n int) []mapping.Mapping {
	if len(is.mapsArena) < n {
		is.mapsArena = make([]mapping.Mapping, max(16*n, 64))
	}
	s := is.mapsArena[:n:n]
	is.mapsArena = is.mapsArena[n:]
	return s
}

// seedGenome builds a conservative, almost-always-feasible starting point:
// per-PE tiles of 1 (minimal buffers), the outer tile sized to spread the
// widest dimension across the inner fanout, and — for co-opt — modest
// power-of-two fanouts varied per seed index.
func (is *island) seedGenome(variant int) space.Genome {
	sp := is.prob.Space
	levels := sp.Levels
	var g space.Genome

	if sp.FixedHW != nil {
		g.Fanouts = append([]int(nil), sp.FixedHW.Fanouts...)
		levels = len(g.Fanouts)
	} else {
		g.Fanouts = make([]int, levels)
		for l := range g.Fanouts {
			f := 1 << uint(2+(variant+l)%5) // 4..64, varied per seed
			if f > sp.MaxFanout {
				f = sp.MaxFanout
			}
			g.Fanouts[l] = f
		}
	}

	g.Maps = make([]mapping.Mapping, len(sp.Layers))
	for li, layer := range sp.Layers {
		dims := layer.Dims()
		// Widest dims first for parallelization.
		var byWidth []workload.Dim
		byWidth = append(byWidth, workload.AllDims[:]...)
		sort.SliceStable(byWidth, func(a, b int) bool { return dims[byWidth[a]] > dims[byWidth[b]] })

		m := mapping.Mapping{Levels: make([]mapping.Level, levels)}
		for lvi := range m.Levels {
			lv := &m.Levels[lvi]
			lv.Spatial = byWidth[lvi%len(byWidth)]
			lv.Order = mapping.CanonicalOrder()
			for _, d := range workload.AllDims {
				lv.Tiles[d] = 1
			}
		}
		// Outer levels cover their child level's spatial fanout so the
		// array is actually occupied.
		for lvi := 1; lvi < levels; lvi++ {
			child := m.Levels[lvi-1]
			cover := child.Tiles[child.Spatial] * g.Fanouts[lvi-1]
			if cover > dims[child.Spatial] {
				cover = dims[child.Spatial]
			}
			m.Levels[lvi].Tiles = m.Levels[lvi-1].Tiles
			m.Levels[lvi].Tiles[child.Spatial] = cover
		}
		m.RepairInPlace(layer) // m is freshly built and owned
		g.Maps[li] = m
	}
	return g
}

// tournament picks the better of two random individuals.
func (is *island) tournament() individual {
	a := is.cur[is.rng.Intn(len(is.cur))]
	b := is.cur[is.rng.Intn(len(is.cur))]
	if b.eval.Fitness < a.eval.Fitness {
		return b
	}
	return a
}

// breed produces one child from the population using the specialized
// operator pipeline, recording into d exactly which slice of the design
// point each operator touched — the dirty set the delta evaluation path
// trusts — and returning the breeding parent's evaluation alongside the
// child (clean layers clone their analyses from it).
//
// Children are bred copy-on-write: a child starts by sharing every
// per-layer mapping block with its parents (only the slice headers and the
// HW genes are copied), and each operator clones exactly the blocks it is
// about to write (ownLayer / the structural grow, age and Repair paths).
// Parents in the population are therefore never mutated in place, the
// shared blocks hash identically in the evaluation cache, and the dominant
// allocation of the old pipeline — two full genome deep-clones per child —
// shrinks to the few blocks mutation actually touches.
func (is *island) breed(d *space.Dirty) (space.Genome, *coopt.Evaluation, obs.OpMask) {
	cfg := is.cfg
	p1 := is.tournament()
	var child space.Genome
	var mask obs.OpMask

	if is.rng.Float64() < cfg.CrossRate {
		p2 := is.tournament()
		child = is.crossover(p1, p2, d)
		mask.Set(obs.OpCross)
	} else {
		child = is.shallowCopy(p1.genome)
	}
	if is.rng.Float64() < cfg.ReorderRate {
		is.reorder(&child, d)
		mask.Set(obs.OpReorder)
	}
	if is.rng.Float64() < cfg.MutMapRate {
		is.mutateMap(&child, d)
		mask.Set(obs.OpMutMap)
	}
	if !cfg.FixedHW {
		if is.rng.Float64() < cfg.MutHWRate {
			is.mutateHW(&child)
			d.MarkHW()
			mask.Set(obs.OpMutHW)
		}
		if is.rng.Float64() < cfg.GrowRate && child.Levels() < cfg.MaxLevels {
			is.grow(&child)
			d.MarkAll() // clustering depth changed: no parent analysis survives
			mask.Set(obs.OpGrow)
		}
		if is.rng.Float64() < cfg.AgeRate && child.Levels() > 2 {
			is.age(&child)
			d.MarkAll()
			mask.Set(obs.OpAge)
		}
		child = is.repairHWBudget(child, d)
	}
	// No full Space.Repair here: children are canonical by construction.
	// Parents are canonical, crossover only exchanges whole (canonical)
	// blocks and equal-length fanout vectors, reorder preserves the
	// permutation property, mutateLayer repairs the blocks it perturbs in
	// place, mutateHW/grow/age/repairHWBudget keep fanouts in [1,
	// MaxFanout] with mapping depths in lockstep. TestBredGenomesCanonical
	// pins this invariant, which EvaluateCanonical relies on.
	return child, p1.eval, mask
}

// layerDims returns the layer bounds for layer index li.
func (is *island) layerDims(li int) workload.Vector {
	return is.prob.Space.Layers[li].Dims()
}

// shallowCopy starts a copy-on-write child: private HW genes and Maps
// slice header (arena-carved), per-layer blocks shared with the parent.
// Any operator that writes a block must take ownership first (ownLayer, or
// the fresh slices built by grow/age/Repair).
func (is *island) shallowCopy(g space.Genome) space.Genome {
	f := is.takeFanouts(len(g.Fanouts))
	copy(f, g.Fanouts)
	m := is.takeMaps(len(g.Maps))
	copy(m, g.Maps)
	return space.Genome{Fanouts: f, Maps: m}
}

// ownLayer gives the genome a private copy of one layer's level slice so
// in-place mutation cannot leak into the parent the block is shared with.
// The copy has cap == len, so a later structural append reallocates
// instead of scribbling over shared backing.
func (is *island) ownLayer(m *mapping.Mapping) {
	nl := is.takeLevels(len(m.Levels))
	copy(nl, m.Levels)
	m.Levels = nl
}

// crossover mixes two parents at domain-meaningful block granularity:
// whole per-layer mapping blocks and the HW gene vector as one unit (the
// PE hierarchy only makes sense as a whole). Because the fitness
// decomposes additively over layers, the per-layer choice is mostly
// greedy — take the block from the parent whose evaluation ran that layer
// faster — with a diversity-preserving random fraction. Blocks are shared,
// not cloned: an inherited block hashes identically in the evaluation
// cache, which is what makes crossover near-free to score.
//
// Dirty accounting is relative to parent A (the delta parent): taking B's
// fanouts marks the HW genes unless the vectors are equal, and taking B's
// block marks the layer unless both parents share the identical backing
// (common elite ancestry) — in which case the child's genes equal A's and
// A's analysis stands.
func (is *island) crossover(pa, pb individual, d *space.Dirty) space.Genome {
	a, b := pa.genome, pb.genome
	child := is.shallowCopy(a)
	if !is.cfg.FixedHW && is.rng.Intn(2) == 0 && len(b.Fanouts) == len(a.Fanouts) {
		copy(child.Fanouts, b.Fanouts)
		if !slices.Equal(child.Fanouts, a.Fanouts) {
			d.MarkHW()
		}
	}
	for li := range child.Maps {
		if b.Maps[li].NumLevels() != child.Maps[li].NumLevels() {
			continue
		}
		takeB := is.rng.Intn(2) == 0
		if pa.eval != nil && pb.eval != nil && is.rng.Float64() < is.cfg.GreedyCross {
			// Pruned parents carry no per-layer detail (possible only
			// under Config.Prune); the greedy pick then keeps the random
			// draw above, which was consumed either way.
			if li < len(pa.eval.Layers) && li < len(pb.eval.Layers) {
				takeB = pb.eval.Layers[li].Score.Cycles < pa.eval.Layers[li].Score.Cycles
			}
		}
		if takeB {
			child.Maps[li] = b.Maps[li]
			if !mapping.SameLevels(a.Maps[li], b.Maps[li]) {
				d.MarkLayer(li)
			}
		}
	}
	return child
}

// reorder swaps two loop positions at a random level of a random layer —
// the specialized operator for the order space.
func (is *island) reorder(g *space.Genome, d *space.Dirty) {
	li := is.rng.Intn(len(g.Maps))
	m := &g.Maps[li]
	is.ownLayer(m) // the block may be shared with a parent
	d.MarkLayer(li)
	lv := &m.Levels[is.rng.Intn(len(m.Levels))]
	i := is.rng.Intn(len(lv.Order))
	j := is.rng.Intn(len(lv.Order))
	lv.Order[i], lv.Order[j] = lv.Order[j], lv.Order[i]
}

// mutateMap perturbs tiling and parallelism. A handful of layers mutate
// per child (expected ~3, so deep models still see every layer touched
// within a few generations). Tiles move either by a geometric local step
// (×2 / ÷2, fine-grained exploitation) or a divisor-biased resample
// relative to the parent level's tile (the domain-aware move that avoids
// ragged edges); the spatial dimension is re-targeted occasionally,
// preferring dimensions with extent > 1 so parallelism is never knowingly
// wasted.
func (is *island) mutateMap(g *space.Genome, d *space.Dirty) {
	prob := 3.0 / float64(len(g.Maps))
	if prob > 1 {
		prob = 1
	}
	mutated := false
	for li := range g.Maps {
		if is.rng.Float64() < prob {
			is.mutateLayer(g, li, d)
			mutated = true
		}
	}
	if !mutated {
		is.mutateLayer(g, is.rng.Intn(len(g.Maps)), d)
	}
}

func (is *island) mutateLayer(g *space.Genome, li int, dirt *space.Dirty) {
	dims := is.layerDims(li)
	m := &g.Maps[li]
	is.ownLayer(m) // the block may be shared with a parent
	dirt.MarkLayer(li)
	for lvi := range m.Levels {
		lv := &m.Levels[lvi]
		parent := dims
		if lvi+1 < len(m.Levels) {
			parent = m.Levels[lvi+1].Tiles
		}
		for _, d := range workload.AllDims {
			if is.rng.Float64() >= 0.3 {
				continue
			}
			if is.rng.Intn(2) == 0 {
				// Local geometric step.
				t := lv.Tiles[d]
				if is.rng.Intn(2) == 0 {
					t *= 2
				} else {
					t /= 2
				}
				if t < 1 {
					t = 1
				}
				if t > parent[d] {
					t = parent[d]
				}
				lv.Tiles[d] = t
			} else {
				lv.Tiles[d] = mapping.RandomTile(is.rng, parent[d], is.cfg.DivisorBias)
			}
		}
		if is.rng.Float64() < 0.3 {
			lv.Spatial = is.pickSpatial(dims)
		}
	}
	// Restore tile monotonicity across levels (mutation can push an inner
	// tile past its parent's); in place, since ownLayer made the block
	// private above.
	m.RepairInPlace(is.prob.Space.Layers[li])
}

// pickSpatial draws a parallelization dimension, strongly preferring
// dimensions the layer can actually fill.
func (is *island) pickSpatial(dims workload.Vector) workload.Dim {
	var wide [workload.NumDims]workload.Dim
	n := 0
	for _, d := range workload.AllDims {
		if dims[d] > 1 {
			wide[n] = d
			n++
		}
	}
	if n > 0 && is.rng.Float64() < 0.9 {
		return wide[is.rng.Intn(n)]
	}
	return workload.AllDims[is.rng.Intn(int(workload.NumDims))]
}

// mutateHW perturbs the PE hierarchy: one fanout gene takes a geometric
// step (×2, ÷2) or a fresh log-uniform draw. The derived buffer allocation
// downstream automatically re-balances memory — this is the coupling the
// paper's Mutate-HW row in Fig. 4 points at.
func (is *island) mutateHW(g *space.Genome) {
	l := is.rng.Intn(len(g.Fanouts))
	limit := is.prob.Space.MaxFanout
	switch is.rng.Intn(3) {
	case 0:
		g.Fanouts[l] *= 2
	case 1:
		g.Fanouts[l] /= 2
	default:
		// Log-uniform resample.
		u := is.rng.Float64()
		g.Fanouts[l] = int(math.Exp(u * math.Log(float64(limit)+0.5)))
	}
	g.Fanouts[l] = min(max(g.Fanouts[l], 1), limit)
}

// grow adds one hierarchy level (the paper's clustering Grow operator):
// the top fanout is factored into two levels, and every layer mapping
// gains a copy of its top level so decode stays legal.
func (is *island) grow(g *space.Genome) {
	top := len(g.Fanouts) - 1
	f := g.Fanouts[top]
	split := 1 + is.rng.Intn(4)
	if f >= 4 {
		split = 2 + is.rng.Intn(f/2)
		if split > f {
			split = f
		}
	}
	g.Fanouts[top] = max(1, f/split)
	g.Fanouts = append(g.Fanouts, split)
	for li := range g.Maps {
		m := &g.Maps[li]
		// Fresh backing (never append): the block may be shared with a
		// parent genome.
		nl := is.takeLevels(len(m.Levels) + 1)
		copy(nl, m.Levels)
		nl[len(m.Levels)] = m.Levels[len(m.Levels)-1]
		m.Levels = nl
	}
}

// age removes the top hierarchy level (Aging), folding its fanout into
// the level below, capped by the space's fanout bound.
func (is *island) age(g *space.Genome) {
	top := len(g.Fanouts) - 1
	merged := min(g.Fanouts[top-1]*g.Fanouts[top], is.prob.Space.MaxFanout)
	g.Fanouts = g.Fanouts[:top]
	g.Fanouts[top-1] = merged
	for li := range g.Maps {
		m := &g.Maps[li]
		// Fresh cap == len backing rather than a re-slice: the block may be
		// shared with a parent, and a shorter alias over shared memory would
		// let a later grow scribble over the parent's top level.
		nl := is.takeLevels(len(m.Levels) - 1)
		copy(nl, m.Levels[:len(m.Levels)-1])
		m.Levels = nl
	}
}

// repairHWBudget shrinks the PE array until the compute area alone leaves
// room inside the budget — the "HW exploration strategy respects the
// interaction between HW and mapping": points the checker would always
// reject are never proposed, so no samples are wasted on hopeless HW.
// Every shrink is recorded in d (when non-nil): the fanouts no longer
// match the breeding parent's.
func (is *island) repairHWBudget(g space.Genome, d *space.Dirty) space.Genome {
	budget := is.prob.Platform.AreaBudgetMM2
	am := is.prob.Platform.Area
	for {
		pes := 1
		for _, f := range g.Fanouts {
			pes *= f
		}
		if float64(pes)*am.PEUm2/1e6 <= budget*0.95 {
			return g
		}
		// Halve the largest fanout.
		l := 0
		for i, f := range g.Fanouts {
			if f > g.Fanouts[l] {
				l = i
			}
		}
		if g.Fanouts[l] <= 1 {
			return g
		}
		g.Fanouts[l] /= 2
		if d != nil {
			d.MarkHW()
		}
	}
}
