package core

import (
	"math"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/opt"
	"digamma/internal/space"
	"digamma/internal/workload"
)

func tinyModel() workload.Model {
	return workload.Model{Name: "tiny", Layers: []workload.Layer{
		{Name: "c1", Type: workload.Conv, K: 32, C: 16, Y: 14, X: 14, R: 3, S: 3, Count: 2},
		{Name: "dw", Type: workload.DepthwiseConv, K: 32, C: 1, Y: 14, X: 14, R: 3, S: 3, Count: 1},
		{Name: "fc", Type: workload.GEMM, K: 64, C: 128, Y: 1, X: 1, R: 1, S: 1, Count: 1},
	}}
}

func newProblem(t *testing.T) *coopt.Problem {
	t.Helper()
	p, err := coopt.NewProblem(tinyModel(), arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	e, err := NewSeeded(newProblem(t), DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// opIsland wraps an engine in a single default-profile island on the
// engine's own RNG stream, so the operator unit tests below drive the
// extracted operator pipeline exactly as a single-population run does.
func opIsland(t *testing.T, e *Engine) *island {
	t.Helper()
	is, err := newIsland(e, 0, Profile{Name: "default"}, e.rng, e.Config.PopSize, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return is
}

func TestNewValidation(t *testing.T) {
	if _, err := NewSeeded(nil, DefaultConfig(), 1); err == nil {
		t.Error("nil problem accepted")
	}
	cfg := DefaultConfig()
	cfg.PopSize = 1
	if _, err := NewSeeded(newProblem(t), cfg, 1); err == nil {
		t.Error("population 1 accepted")
	}
}

func TestRunRespectsBudget(t *testing.T) {
	for _, budget := range []int{1, 17, 200} {
		e := newEngine(t, 1)
		r, err := e.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		if r.Samples > budget {
			t.Errorf("budget %d: used %d samples", budget, r.Samples)
		}
		if r.Best == nil {
			t.Fatalf("budget %d: no best", budget)
		}
	}
	e := newEngine(t, 1)
	if _, err := e.Run(0); err == nil {
		t.Error("zero budget accepted")
	}
}

// Elitism must make the best-fitness history non-increasing.
func TestHistoryMonotone(t *testing.T) {
	e := newEngine(t, 7)
	r, err := e.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.History); i++ {
		if r.History[i] > r.History[i-1] {
			t.Fatalf("history increased at generation %d: %g > %g",
				i, r.History[i], r.History[i-1])
		}
	}
}

func TestFindsValidDesign(t *testing.T) {
	e := newEngine(t, 3)
	r, err := e.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Best.Valid {
		t.Fatalf("no valid design found: overflow %g", r.Best.Overflow)
	}
	if !e.Problem.Platform.Fits(r.Best.HW) {
		t.Errorf("best design exceeds budget: %v", e.Problem.Platform.Area.Area(r.Best.HW))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	r1, err := Optimize(newProblem(t), 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(newProblem(t), 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Fitness != r2.Best.Fitness {
		t.Errorf("non-deterministic: %g vs %g", r1.Best.Fitness, r2.Best.Fitness)
	}
}

// DiGamma must beat random search at equal (modest) budget on the co-opt
// problem — the basic sample-efficiency claim.
func TestBeatsRandomSearch(t *testing.T) {
	p := newProblem(t)
	dg, err := Optimize(p, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := p.RunVector(opt.Random{}, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Best.Fitness > rnd.Fitness {
		t.Errorf("DiGamma (%g) worse than random search (%g)", dg.Best.Fitness, rnd.Fitness)
	}
}

func TestGammaKeepsHWFixed(t *testing.T) {
	p := newProblem(t)
	hw := arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}}
	r, err := RunGamma(p, hw, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best.HW.Fanouts[0] != 16 || r.Best.HW.Fanouts[1] != 8 {
		t.Errorf("GAMMA changed HW: %v", r.Best.HW.Fanouts)
	}
	if r.Best.HW.BufBytes[0] != 8<<10 {
		t.Errorf("GAMMA changed buffers: %v", r.Best.HW.BufBytes)
	}
}

func TestGrowAndAgeKeepGenomesLegal(t *testing.T) {
	e := newEngine(t, 13)
	is := opIsland(t, e)
	g := e.Problem.Space.Random(e.rng, 2)
	is.grow(&g)
	if g.Levels() != 3 {
		t.Fatalf("grow produced %d levels", g.Levels())
	}
	rep := e.Problem.Space.Repair(g)
	for li, m := range rep.Maps {
		if err := m.Validate(e.Problem.Space.Layers[li]); err != nil {
			t.Fatalf("post-grow invalid: %v", err)
		}
		if m.NumLevels() != 3 {
			t.Fatalf("post-grow mapping has %d levels", m.NumLevels())
		}
	}
	is.age(&rep)
	if rep.Levels() != 2 {
		t.Fatalf("age produced %d levels", rep.Levels())
	}
	rep2 := e.Problem.Space.Repair(rep)
	for li, m := range rep2.Maps {
		if err := m.Validate(e.Problem.Space.Layers[li]); err != nil {
			t.Fatalf("post-age invalid: %v", err)
		}
	}
}

func TestMutateHWStaysInBounds(t *testing.T) {
	e := newEngine(t, 17)
	is := opIsland(t, e)
	g := e.Problem.Space.Random(e.rng, 2)
	for i := 0; i < 500; i++ {
		is.mutateHW(&g)
		for l, f := range g.Fanouts {
			if f < 1 || f > e.Problem.Space.MaxFanout {
				t.Fatalf("iteration %d: fanout[%d] = %d out of bounds", i, l, f)
			}
		}
	}
}

func TestRepairHWBudgetBoundsComputeArea(t *testing.T) {
	e := newEngine(t, 19)
	is := opIsland(t, e)
	g := e.Problem.Space.Random(e.rng, 2)
	g.Fanouts[0] = e.Problem.Space.MaxFanout
	g.Fanouts[1] = e.Problem.Space.MaxFanout
	g = is.repairHWBudget(g, nil)
	peArea := float64(g.NumPEs()) * e.Problem.Platform.Area.PEUm2 / 1e6
	if peArea > e.Problem.Platform.AreaBudgetMM2 {
		t.Errorf("repaired compute area %g exceeds budget %g",
			peArea, e.Problem.Platform.AreaBudgetMM2)
	}
}

func TestReorderPreservesPermutation(t *testing.T) {
	e := newEngine(t, 23)
	is := opIsland(t, e)
	g := e.Problem.Space.Random(e.rng, 2)
	for i := 0; i < 200; i++ {
		is.reorder(&g, new(space.Dirty))
	}
	for li, m := range g.Maps {
		if err := m.Validate(e.Problem.Space.Layers[li]); err != nil {
			t.Fatalf("reorder broke layer %d: %v", li, err)
		}
	}
}

func TestMutateMapKeepsLegalAfterRepair(t *testing.T) {
	e := newEngine(t, 29)
	is := opIsland(t, e)
	g := e.Problem.Space.Random(e.rng, 2)
	for i := 0; i < 300; i++ {
		is.mutateMap(&g, new(space.Dirty))
		r := e.Problem.Space.Repair(g)
		for li, m := range r.Maps {
			if err := m.Validate(e.Problem.Space.Layers[li]); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
}

func TestPickSpatialPrefersWideDims(t *testing.T) {
	e := newEngine(t, 31)
	is := opIsland(t, e)
	dims := workload.Vector{64, 128, 1, 1, 1, 1} // GEMM-like
	narrow := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		d := is.pickSpatial(dims)
		if dims[d] == 1 {
			narrow++
		}
	}
	if frac := float64(narrow) / trials; frac > 0.15 {
		t.Errorf("picked size-1 spatial dims %.1f%% of the time", frac*100)
	}
}

func TestCrossoverAlignsStructure(t *testing.T) {
	e := newEngine(t, 37)
	is := opIsland(t, e)
	ga := e.Problem.Space.Random(e.rng, 2)
	gb := e.Problem.Space.Random(e.rng, 2)
	ea, err := e.Problem.Evaluate(ga)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := e.Problem.Evaluate(gb)
	if err != nil {
		t.Fatal(err)
	}
	a := individual{ga, ea}
	b := individual{gb, eb}
	for i := 0; i < 100; i++ {
		c := is.crossover(a, b, new(space.Dirty))
		r := e.Problem.Space.Repair(c)
		for li, m := range r.Maps {
			if err := m.Validate(e.Problem.Space.Layers[li]); err != nil {
				t.Fatalf("crossover child invalid: %v", err)
			}
		}
	}
}

// Greedy block crossover must, with both parents evaluated, assemble a
// child whose per-layer blocks come from the faster parent most of the
// time.
func TestCrossoverGreedyPicksFasterBlocks(t *testing.T) {
	e := newEngine(t, 41)
	is := opIsland(t, e)
	ga := e.Problem.Space.Random(e.rng, 2)
	gb := ga.Clone() // same HW so per-layer cycles are comparable
	for li := range gb.Maps {
		gb.Maps[li] = e.Problem.Space.Random(e.rng, 2).Maps[li]
	}
	ea, err := e.Problem.Evaluate(ga)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := e.Problem.Evaluate(gb)
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		c := is.crossover(individual{ga, ea}, individual{gb, eb}, new(space.Dirty))
		ec, err := e.Problem.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		best := ea.Cycles
		if eb.Cycles < best {
			best = eb.Cycles
		}
		if ec.Cycles <= best*1.001 {
			better++
		}
	}
	if frac := float64(better) / trials; frac < 0.5 {
		t.Errorf("greedy crossover beat both parents only %.0f%% of the time", frac*100)
	}
}

// The full co-opt flow on a memory-bound model must still find valid
// designs (buffer-heavy rather than PE-heavy).
func TestMemoryBoundModelCoopt(t *testing.T) {
	m, err := workload.ByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := coopt.NewProblem(m, arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Optimize(p, 500, 41)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Best.Valid {
		t.Fatal("no valid NCF design")
	}
	if math.IsNaN(r.Best.Cycles) || r.Best.Cycles <= 0 {
		t.Errorf("bad cycles %g", r.Best.Cycles)
	}
}

func TestConfigsForGamma(t *testing.T) {
	c := GammaConfig()
	if !c.FixedHW || c.MutHWRate != 0 || c.GrowRate != 0 || c.AgeRate != 0 {
		t.Errorf("GammaConfig = %+v", c)
	}
}

func TestTuneReturnsRunnableConfig(t *testing.T) {
	p := newProblem(t)
	cfg, f, err := Tune(p, TuneOptions{Trials: 6, BudgetPerTrial: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PopSize < 4 || cfg.EliteFrac <= 0 || cfg.MutMapRate <= 0 {
		t.Errorf("tuned config out of bounds: %+v", cfg)
	}
	if f <= 0 {
		t.Errorf("tuned fitness %g", f)
	}
	// The tuned config must run.
	eng, err := NewSeeded(p, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, _, err := Tune(nil, TuneOptions{}); err == nil {
		t.Error("nil problem accepted")
	}
}

func TestDecodeConfigBounds(t *testing.T) {
	for _, x := range [][]float64{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{-5, 2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		{}, // short vectors fall back to midpoints
	} {
		cfg := decodeConfig(x)
		if cfg.PopSize < 10 || cfg.PopSize > 80 {
			t.Errorf("PopSize %d out of [10,80]", cfg.PopSize)
		}
		if cfg.EliteFrac < 0.05 || cfg.EliteFrac > 0.30 {
			t.Errorf("EliteFrac %g out of bounds", cfg.EliteFrac)
		}
		if cfg.GrowRate != cfg.AgeRate {
			t.Error("grow/age not coupled")
		}
	}
}

// Parallel evaluation must produce bit-identical results to serial.
func TestParallelEvaluationDeterministic(t *testing.T) {
	p := newProblem(t)
	serial := DefaultConfig()
	parallel := DefaultConfig()
	parallel.Workers = 4
	e1, err := NewSeeded(p, serial, 55)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewSeeded(p, parallel, 55)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Fitness != r2.Best.Fitness {
		t.Errorf("parallel (%g) != serial (%g)", r2.Best.Fitness, r1.Best.Fitness)
	}
	if len(r1.History) != len(r2.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(r1.History), len(r2.History))
	}
	for i := range r1.History {
		if r1.History[i] != r2.History[i] {
			t.Fatalf("histories diverge at generation %d", i)
		}
	}
}
