package coopt

import (
	"math"
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/mapping"
	"digamma/internal/opt"
	"digamma/internal/workload"
)

func tinyModel() workload.Model {
	return workload.Model{Name: "tiny", Layers: []workload.Layer{
		{Name: "c1", Type: workload.Conv, K: 16, C: 8, Y: 8, X: 8, R: 3, S: 3, Count: 2},
		{Name: "fc", Type: workload.GEMM, K: 32, C: 64, Y: 1, X: 1, R: 1, S: 1, Count: 1},
	}}
}

func mustProblem(t *testing.T, obj Objective) *Problem {
	t.Helper()
	p, err := NewProblem(tinyModel(), arch.Edge(), obj)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestObjectiveParse(t *testing.T) {
	for _, o := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%s) = %v, %v", o, got, err)
		}
	}
	if _, err := ParseObjective("power"); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestEvaluateDerivesBuffers(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(1))
	g := p.Space.Random(rng, 2)
	ev, err := p.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.HW.BufBytes) != 2 {
		t.Fatalf("derived %d buffer levels", len(ev.HW.BufBytes))
	}
	for l, b := range ev.HW.BufBytes {
		if b <= 0 {
			t.Errorf("derived buffer[%d] = %d", l, b)
		}
		// Derived buffer must cover every layer's requirement.
		for _, le := range ev.Layers {
			req := int64(math.Ceil(le.Score.Buffer[l])) * 2 * int64(ev.HW.BytesPerWord)
			if req > b {
				t.Errorf("layer %s needs %d at level %d, allocated %d", le.Layer.Name, req, l, b)
			}
		}
	}
	if ev.Cycles <= 0 || math.IsNaN(ev.Cycles) {
		t.Errorf("cycles = %g", ev.Cycles)
	}
}

func TestEvaluateLayerWeighting(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(2))
	g := p.Space.Random(rng, 2)
	ev, err := p.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	var manual float64
	for _, le := range ev.Layers {
		manual += le.Score.Cycles * float64(le.Layer.Multiplicity())
	}
	if math.Abs(manual-ev.Cycles) > 1e-9*manual {
		t.Errorf("cycles %g != weighted sum %g", ev.Cycles, manual)
	}
}

func TestConstraintChecker(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(3))
	g := p.Space.Random(rng, 2)
	// Force an enormous PE array: must be invalid on the edge budget.
	g.Fanouts[0] = p.Space.MaxFanout
	g.Fanouts[1] = p.Space.MaxFanout
	ev, err := p.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Valid {
		t.Fatalf("oversized design valid: area %v vs budget %g", ev.Area, p.Platform.AreaBudgetMM2)
	}
	if ev.Fitness < invalidBase {
		t.Errorf("invalid fitness %g below penalty floor", ev.Fitness)
	}
	if ev.Overflow <= 0 {
		t.Error("invalid design has zero overflow")
	}
}

func TestPenaltyOrdersViolations(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(4))
	g1 := p.Space.Random(rng, 2)
	g1.Fanouts = []int{64, 64} // mildly too large for 0.2 mm²? possibly valid
	g2 := g1.Clone()
	g2.Fanouts = []int{512, 512} // vastly too large
	e1, err := p.Evaluate(g1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.Evaluate(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Valid && !e2.Valid && e2.Fitness <= e1.Fitness {
		t.Errorf("worse violation not penalized more: %g vs %g", e2.Fitness, e1.Fitness)
	}
	if e1.Valid && e2.Valid {
		t.Skip("both designs fit; penalty ordering untestable here")
	}
}

func TestFixedHWMode(t *testing.T) {
	p := mustProblem(t, Latency)
	hw := arch.HW{Fanouts: []int{8, 8}, BufBytes: []int64{4096, 1 << 20}}
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	g := fp.Space.Random(rng, 2)
	ev, err := fp.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if ev.HW.Fanouts[0] != 8 || ev.HW.Fanouts[1] != 8 {
		t.Errorf("fixed HW fanouts changed: %v", ev.HW.Fanouts)
	}
	if ev.HW.BufBytes[1] != 1<<20 {
		t.Errorf("fixed HW buffers changed: %v", ev.HW.BufBytes)
	}
}

func TestFixedHWBufferConstraint(t *testing.T) {
	p := mustProblem(t, Latency)
	// Absurdly small buffers: every mapping must violate capacity.
	hw := arch.HW{Fanouts: []int{4, 4}, BufBytes: []int64{4, 8}}
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	ev, err := fp.Evaluate(fp.Space.Random(rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Valid {
		t.Error("mapping fit into 4-byte buffers")
	}
}

func TestObjectivesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gSeed := mustProblem(t, Latency).Space.Random(rng, 2)
	vals := map[Objective]float64{}
	for _, o := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
		p := mustProblem(t, o)
		ev, err := p.Evaluate(gSeed.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Valid {
			t.Skip("random genome invalid; objective comparison skipped")
		}
		vals[o] = ev.Fitness
	}
	if vals[EDP] != vals[Energy]*vals[Latency] {
		t.Errorf("EDP %g != energy %g × latency %g", vals[EDP], vals[Energy], vals[Latency])
	}
	if vals[LatencyAreaProduct] <= 0 {
		t.Error("latency-area product not positive")
	}
}

func TestVectorObjectiveFiniteForValidDesigns(t *testing.T) {
	p := mustProblem(t, Latency)
	obj := p.VectorObjective()
	rng := rand.New(rand.NewSource(8))
	finite := 0
	for i := 0; i < 50; i++ {
		x := make([]float64, p.Space.Dim())
		for j := range x {
			x[j] = rng.Float64()
		}
		if f := obj(x); !math.IsInf(f, 1) && !math.IsNaN(f) {
			finite++
		}
	}
	if finite == 0 {
		t.Error("no random vector produced a finite fitness")
	}
}

func TestRunVectorImprovesOverSingleSample(t *testing.T) {
	p := mustProblem(t, Latency)
	one, err := p.RunVector(opt.Random{}, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	many, err := p.RunVector(opt.Random{}, 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if many.Fitness > one.Fitness {
		t.Errorf("300 samples (%g) worse than 1 sample (%g)", many.Fitness, one.Fitness)
	}
}

func TestRunVectorRejectsBadBudget(t *testing.T) {
	p := mustProblem(t, Latency)
	if _, err := p.RunVector(opt.Random{}, 0, 1); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestEvaluateMappingHelper(t *testing.T) {
	layers := tinyModel().UniqueLayers()
	hw := arch.HW{Fanouts: []int{8, 8}, BufBytes: []int64{1 << 16, 1 << 22}}
	rng := rand.New(rand.NewSource(9))
	maps := make([]mapping.Mapping, len(layers))
	for i, l := range layers {
		maps[i] = mapping.Random(rng, l, 2)
	}
	ev, err := EvaluateMapping(layers, hw, maps, arch.Edge(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cycles <= 0 {
		t.Error("no cycles")
	}
	if _, err := EvaluateMapping(layers, hw, maps[:1], arch.Edge(), Latency); err == nil {
		t.Error("mismatched mapping count accepted")
	}
}

func TestEvaluationDeterminism(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(10))
	g := p.Space.Random(rng, 2)
	e1, err := p.Evaluate(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.Evaluate(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if e1.Fitness != e2.Fitness || e1.Cycles != e2.Cycles {
		t.Error("evaluation not deterministic")
	}
}
