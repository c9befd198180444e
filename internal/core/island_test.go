package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/schemes"
	"digamma/internal/workload"
)

// zooProblem builds a co-opt problem for a built-in model at edge
// resources — the configuration the golden values below were recorded on.
func zooProblem(t *testing.T, model string) *coopt.Problem {
	t.Helper()
	m, err := workload.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := coopt.NewProblem(m, arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runIslands executes one search with the given island configuration.
func runIslands(t *testing.T, p *coopt.Problem, seed int64, budget int, mutate func(*Config)) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewSeeded(p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// weightedHistory folds a run's history into one order-sensitive float:
// any divergence in any generation's best moves the sum.
func weightedHistory(r *Result) float64 {
	s := 0.0
	for i, h := range r.History {
		s += h * float64(i+1)
	}
	return s
}

// TestIslandsOneGoldenBitIdentical pins the island refactor to the
// pre-island engine: with Islands unset (and explicitly 1), the
// 400-sample searches below must reproduce the exact Samples,
// Generations, Best.Fitness and history recorded from the tree *before*
// the generation loop was extracted into the island unit — the island
// coordinator with K = 1 is the classic panmictic engine, bit for bit.
func TestIslandsOneGoldenBitIdentical(t *testing.T) {
	golden := []struct {
		model       string
		seed        int64
		samples     int
		generations int
		bestFitness float64
		histSum     float64
	}{
		{"ncf", 1, 400, 10, 0x1.ae9p+07, 0x1.c9496aaaaaaaap+13},
		{"ncf", 7, 400, 10, 0x1.afap+07, 0x1.d443933333333p+13},
		{"ncf", 42, 400, 10, 0x1.bfep+07, 0x1.d7b08p+13},
		{"resnet18", 1, 400, 10, 0x1.30ae9ae8f621bp+25, 0x1.d1f364c5e9aaap+31},
		{"resnet18", 7, 400, 10, 0x1.5390c0a618617p+24, 0x1.b6147316ffb18p+31},
		{"resnet18", 42, 400, 10, 0x1.b219c174bc14ep+24, 0x1.90a6197d09546p+31},
	}
	for _, g := range golden {
		for _, islands := range []int{0, 1} {
			r := runIslands(t, zooProblem(t, g.model), g.seed, 400, func(c *Config) {
				c.Islands = islands
			})
			if r.Samples != g.samples || r.Generations != g.generations {
				t.Errorf("%s/seed%d islands=%d: samples %d gens %d, want %d/%d",
					g.model, g.seed, islands, r.Samples, r.Generations, g.samples, g.generations)
			}
			if r.Best.Fitness != g.bestFitness {
				t.Errorf("%s/seed%d islands=%d: best %x, want %x",
					g.model, g.seed, islands, r.Best.Fitness, g.bestFitness)
			}
			if hs := weightedHistory(r); hs != g.histSum {
				t.Errorf("%s/seed%d islands=%d: history sum %x, want %x",
					g.model, g.seed, islands, hs, g.histSum)
			}
		}
	}
}

// TestIslandWorkersBitIdentical pins the island model's determinism
// contract: for K > 1, the same (seed, islands, profiles) must produce
// bit-identical Result.Best and History whether the islands step serially
// or across every available core — across 10 seeds, with migration and a
// scout island in the mix.
func TestIslandWorkersBitIdentical(t *testing.T) {
	configure := func(workers int) func(*Config) {
		return func(c *Config) {
			c.Workers = workers
			c.Islands = 4
			c.MigrateEvery = 2
			c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		p := zooProblem(t, "ncf")
		ref := runIslands(t, p, seed, 480, configure(1))
		got := runIslands(t, zooProblem(t, "ncf"), seed, 480, configure(runtime.GOMAXPROCS(0)))
		if got.Best.Fitness != ref.Best.Fitness {
			t.Errorf("seed %d: best %x (parallel) != %x (serial)", seed, got.Best.Fitness, ref.Best.Fitness)
		}
		if got.Samples != ref.Samples || got.Generations != ref.Generations {
			t.Errorf("seed %d: samples/gens %d/%d != %d/%d",
				seed, got.Samples, got.Generations, ref.Samples, ref.Generations)
		}
		if len(got.History) != len(ref.History) {
			t.Fatalf("seed %d: history length %d != %d", seed, len(got.History), len(ref.History))
		}
		for i := range got.History {
			if got.History[i] != ref.History[i] {
				t.Errorf("seed %d: history[%d] = %x != %x", seed, i, got.History[i], ref.History[i])
			}
		}
	}
}

// TestIslandsSpendExactBudget: the budget shares across islands — and the
// scout's migration re-scores — must account for every sample: the run
// spends its budget exactly, and the per-tier counters sum to it.
func TestIslandsSpendExactBudget(t *testing.T) {
	for _, tc := range []struct {
		islands  int
		budget   int
		profiles []string
	}{
		{1, 400, nil},
		{2, 401, nil},
		{3, 403, []string{"explorer", "exploiter"}},
		{4, 450, []string{"default", "explorer", "exploiter", "scout"}},
		{4, 7, nil}, // budget below one population: islands clamp to it
	} {
		r := runIslands(t, zooProblem(t, "ncf"), 5, tc.budget, func(c *Config) {
			c.Islands = tc.islands
			c.MigrateEvery = 2
			c.Profiles = tc.profiles
		})
		if r.Samples != tc.budget {
			t.Errorf("islands=%d budget=%d: spent %d samples", tc.islands, tc.budget, r.Samples)
		}
		if sum := r.FullEvals + r.PrunedEvals + r.ScoutEvals; sum != r.Samples {
			t.Errorf("islands=%d: tier counters sum to %d, samples %d", tc.islands, sum, r.Samples)
		}
	}
}

// TestScoutIslandBestIsFullModel: with a scout island in the ring, the
// reported best is always a full-fidelity point — re-evaluating its
// genome on the run's (full) model reproduces the fitness bit for bit —
// and the scout actually screened part of the budget on the bound tier.
func TestScoutIslandBestIsFullModel(t *testing.T) {
	p := zooProblem(t, "ncf")
	r := runIslands(t, p, 3, 600, func(c *Config) {
		c.Islands = 2
		c.MigrateEvery = 2
		c.Profiles = []string{"default", "scout"}
	})
	if r.ScoutEvals == 0 {
		t.Fatal("scout island screened nothing")
	}
	if r.Best.Pruned {
		t.Fatal("reported best is a bound-screened point")
	}
	ev, err := p.EvaluateCanonical(r.Best.Genome)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fitness != r.Best.Fitness {
		t.Errorf("best does not re-derive on the full model: %x vs %x", ev.Fitness, r.Best.Fitness)
	}
	// The bound tier lower-bounds the full model, so the scout's screens
	// can never report fitnesses above their full-model re-scores; spot
	// the accounting instead: re-scored migrants are FullEvals.
	if r.FullEvals == 0 {
		t.Error("no full-model evaluations recorded")
	}
}

// TestAllScoutFallsBack: a profile rotation that would make every island
// a scout silently runs island 0 on the default profile, so the search
// still reports a full-fidelity best.
func TestAllScoutFallsBack(t *testing.T) {
	p := zooProblem(t, "ncf")
	r := runIslands(t, p, 2, 300, func(c *Config) {
		c.Islands = 2
		c.Profiles = []string{"scout"}
	})
	if r.Best == nil || r.Best.Pruned {
		t.Fatal("no full-fidelity best reported")
	}
	ev, err := p.EvaluateCanonical(r.Best.Genome)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fitness != r.Best.Fitness {
		t.Errorf("best is not full-model-scored: %x vs %x", ev.Fitness, r.Best.Fitness)
	}
}

// TestUnknownProfileRejected: New validates profile names up front.
func TestUnknownProfileRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profiles = []string{"default", "bogus"}
	if _, err := NewSeeded(newProblem(t), cfg, 1); err == nil {
		t.Error("unknown profile accepted")
	}
	cfg = DefaultConfig()
	cfg.Islands = -1
	if _, err := NewSeeded(newProblem(t), cfg, 1); err == nil {
		t.Error("negative island count accepted")
	}
}

// TestIslandHistoryMonotone: elites never leave an island and migration
// only replaces an island's worst, so the global best-so-far trace stays
// non-increasing for any island count.
func TestIslandHistoryMonotone(t *testing.T) {
	for _, islands := range []int{2, 4} {
		r := runIslands(t, zooProblem(t, "ncf"), 11, 600, func(c *Config) {
			c.Islands = islands
			c.MigrateEvery = 2
			c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
		})
		for i := 1; i < len(r.History); i++ {
			if r.History[i] > r.History[i-1] {
				t.Fatalf("islands=%d: history increased at %d: %g > %g",
					islands, i, r.History[i], r.History[i-1])
			}
		}
		if r.Best.Fitness != r.History[len(r.History)-1] {
			t.Errorf("islands=%d: best %g != final history %g",
				islands, r.Best.Fitness, r.History[len(r.History)-1])
		}
		if math.IsInf(r.Best.Fitness, 1) {
			t.Errorf("islands=%d: no finite best", islands)
		}
	}
}

// TestGammaIslandsKeepHWFixed: island profiles can never re-enable the
// HW operators a fixed-HW (GAMMA) problem forbids — even the
// explore-heavy profiles must leave the given hardware untouched.
func TestGammaIslandsKeepHWFixed(t *testing.T) {
	p := newProblem(t)
	hw := arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}}
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GammaConfig()
	cfg.Workers = 1
	cfg.Islands = 3
	cfg.MigrateEvery = 2
	cfg.Profiles = []string{"explorer", "exploiter", "scout"}
	e, err := NewSeeded(fp, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(420)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best.HW.Fanouts[0] != 16 || r.Best.HW.Fanouts[1] != 8 {
		t.Errorf("island GAMMA changed HW: %v", r.Best.HW.Fanouts)
	}
}

// TestIslandsManyGoldenBitIdentical pins the multi-island engine to
// recorded values: for K ∈ {2, 4} and two seeds, each mode below — the
// default ring, a profile mix with a scout, bound pruning, GAMMA's fixed
// hardware and a fixed DLA-like mapping, all migrating every second
// generation — must reproduce the Samples, Generations, Best.Fitness and
// weighted history recorded from the tree whose in-process ring still
// shared migrant evaluations between populations. The equivalence tests
// compare the in-process and distributed drivers with each other; this
// one catches a change that moves both the same way.
func TestIslandsManyGoldenBitIdentical(t *testing.T) {
	hw := arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}}
	modes := []struct {
		name    string
		problem func(*coopt.Problem) (*coopt.Problem, error)
		mutate  func(*Config)
	}{
		{"ring", nil, nil},
		{"profiles", nil, func(c *Config) { c.Profiles = []string{"default", "scout", "explorer", "exploiter"} }},
		{"prune", nil, func(c *Config) { c.Prune = true }},
		{"gamma", func(p *coopt.Problem) (*coopt.Problem, error) { return p.WithFixedHW(hw) }, func(c *Config) {
			g := GammaConfig()
			g.Workers, g.Islands, g.MigrateEvery = c.Workers, c.Islands, c.MigrateEvery
			*c = g
		}},
		{"fixedmap", func(p *coopt.Problem) (*coopt.Problem, error) {
			return p.WithFixedMapping(schemes.Rule(schemes.DLALike))
		}, nil},
	}
	golden := map[string]struct {
		samples     int
		generations int
		bestFitness float64
		histSum     float64
	}{
		"ring/islands=2/seed=1":     {600, 16, 0x1.4d067caaf953p+24, 0x1.6f9cf1aa8cd2bp+32},
		"ring/islands=2/seed=7":     {600, 16, 0x1.03d5b508d406ep+24, 0x1.411daebeaa526p+32},
		"ring/islands=4/seed=1":     {600, 16, 0x1.99d3ce9f1977p+24, 0x1.751a1b42932e5p+32},
		"ring/islands=4/seed=7":     {600, 16, 0x1.20c7f04a7cf3cp+24, 0x1.4770527b0d029p+32},
		"profiles/islands=2/seed=1": {600, 16, 0x1.8e44b9c6aae27p+24, 0x1.9c37df9f8ef0ep+32},
		"profiles/islands=2/seed=7": {600, 16, 0x1.957d398d8c61bp+24, 0x1.9523cb4c5ccbep+32},
		"profiles/islands=4/seed=1": {600, 18, 0x1.7cd502f9b6adbp+24, 0x1.91e487b2af70dp+32},
		"profiles/islands=4/seed=7": {600, 18, 0x1.a756983a05573p+24, 0x1.bc327dc54a0c7p+32},
		"prune/islands=2/seed=1":    {600, 16, 0x1.92f8d93718f62p+24, 0x1.97f5ba3400096p+32},
		"prune/islands=2/seed=7":    {600, 16, 0x1.8d7c24438e38ep+24, 0x1.959780c25738cp+32},
		"prune/islands=4/seed=1":    {600, 16, 0x1.7f920f7c88ff6p+24, 0x1.561ab65122bc9p+32},
		"prune/islands=4/seed=7":    {600, 16, 0x1.3d5ae5c94198bp+24, 0x1.83bbf1697dda4p+32},
		"gamma/islands=2/seed=1":    {600, 16, 0x1.5c50dcd0177b2p+24, 0x1.4ebb8bcf6273p+32},
		"gamma/islands=2/seed=7":    {600, 16, 0x1.1e303c1ee9f0fp+24, 0x1.15452e4e07f9fp+32},
		"gamma/islands=4/seed=1":    {600, 16, 0x1.6d18075873271p+24, 0x1.b7e531cb34a1cp+32},
		"gamma/islands=4/seed=7":    {600, 16, 0x1.1fbc51d011fedp+24, 0x1.19f530a61c5eep+32},
		"fixedmap/islands=2/seed=1": {600, 16, 0x1.c5161d61fd2ffp+24, 0x1.13737a91dbd64p+32},
		"fixedmap/islands=2/seed=7": {600, 16, 0x1.f68686fd0a72fp+24, 0x1.31f74b7986476p+32},
		"fixedmap/islands=4/seed=1": {600, 16, 0x1.f68686fd0a72fp+24, 0x1.3e6f30eb03ac7p+32},
		"fixedmap/islands=4/seed=7": {600, 16, 0x1.f68686fd0a72fp+24, 0x1.32c75d39c23ebp+32},
	}
	for _, m := range modes {
		for _, k := range []int{2, 4} {
			for _, seed := range []int64{1, 7} {
				key := fmt.Sprintf("%s/islands=%d/seed=%d", m.name, k, seed)
				p := zooProblem(t, "resnet18")
				if m.problem != nil {
					var err error
					if p, err = m.problem(p); err != nil {
						t.Fatal(err)
					}
				}
				r := runIslands(t, p, seed, 600, func(c *Config) {
					c.Islands = k
					c.MigrateEvery = 2
					if m.mutate != nil {
						m.mutate(c)
					}
				})
				g, ok := golden[key]
				if !ok {
					t.Fatalf("%s: no golden recorded", key)
				}
				if r.Samples != g.samples || r.Generations != g.generations {
					t.Errorf("%s: samples %d gens %d, want %d/%d", key, r.Samples, r.Generations, g.samples, g.generations)
				}
				if r.Best.Fitness != g.bestFitness {
					t.Errorf("%s: best %x, want %x", key, r.Best.Fitness, g.bestFitness)
				}
				if hs := weightedHistory(r); hs != g.histSum {
					t.Errorf("%s: history sum %x, want %x", key, hs, g.histSum)
				}
			}
		}
	}
}
