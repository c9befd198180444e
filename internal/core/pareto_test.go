package core

import (
	"testing"

	"digamma/internal/coopt"
)

func paretoEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	e, err := NewSeeded(newProblem(t), DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDominates(t *testing.T) {
	if !dominates([]float64{1, 2}, []float64{2, 3}) {
		t.Error("strict dominance missed")
	}
	if !dominates([]float64{1, 3}, []float64{2, 3}) {
		t.Error("weak dominance with one strict missed")
	}
	if dominates([]float64{1, 3}, []float64{1, 3}) {
		t.Error("equal vectors dominate")
	}
	if dominates([]float64{1, 4}, []float64{2, 3}) {
		t.Error("incomparable vectors dominate")
	}
}

func TestRunParetoValidation(t *testing.T) {
	e := paretoEngine(t, 1)
	if _, err := e.RunPareto(0, []coopt.Objective{coopt.Latency, coopt.Energy}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := e.RunPareto(100, []coopt.Objective{coopt.Latency}); err == nil {
		t.Error("single objective accepted")
	}
}

func TestRunParetoFrontInvariants(t *testing.T) {
	e := paretoEngine(t, 5)
	objectives := []coopt.Objective{coopt.Latency, coopt.Energy}
	r, err := e.RunPareto(800, objectives)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples > 800 {
		t.Errorf("used %d samples", r.Samples)
	}
	if len(r.Front) == 0 {
		t.Fatal("empty front")
	}
	// Every front member must be valid and mutually non-dominated.
	for i, a := range r.Front {
		if !a.Valid {
			t.Errorf("front member %d invalid", i)
		}
		va := []float64{objectiveValue(a, objectives[0]), objectiveValue(a, objectives[1])}
		for j, b := range r.Front {
			if i == j {
				continue
			}
			vb := []float64{objectiveValue(b, objectives[0]), objectiveValue(b, objectives[1])}
			if dominates(vb, va) {
				t.Fatalf("front member %d dominated by %d: %v vs %v", i, j, va, vb)
			}
		}
	}
	// Sorted by the first objective.
	for i := 1; i < len(r.Front); i++ {
		if r.Front[i].Cycles < r.Front[i-1].Cycles {
			t.Error("front not sorted by latency")
		}
	}
}

func TestRunParetoExposesTradeoff(t *testing.T) {
	e := paretoEngine(t, 9)
	r, err := e.RunPareto(1200, []coopt.Objective{coopt.Latency, coopt.LatencyAreaProduct})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Front) < 1 {
		t.Fatal("no front")
	}
	// With enough budget the front usually spans a trade-off; at minimum
	// it must contain the best-latency point found.
	t.Logf("front size %d, generations %d", len(r.Front), r.Generations)
}

func TestRunParetoDeterministic(t *testing.T) {
	objectives := []coopt.Objective{coopt.Latency, coopt.Energy}
	r1, err := paretoEngine(t, 31).RunPareto(400, objectives)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := paretoEngine(t, 31).RunPareto(400, objectives)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Front) != len(r2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(r1.Front), len(r2.Front))
	}
	for i := range r1.Front {
		if r1.Front[i].Cycles != r2.Front[i].Cycles {
			t.Error("fronts differ")
			break
		}
	}
}

func TestObjectiveValueInvalid(t *testing.T) {
	ev := &coopt.Evaluation{Valid: false, Cycles: 5}
	for _, o := range []coopt.Objective{coopt.Latency, coopt.Energy, coopt.EDP, coopt.LatencyAreaProduct} {
		v := objectiveValue(ev, o)
		if v < 1e300 {
			t.Errorf("invalid design objective %v = %g, want +Inf", o, v)
		}
	}
	valid := &coopt.Evaluation{Valid: true, Cycles: 5, EnergyPJ: 3, LatAreaProd: 7}
	if objectiveValue(valid, coopt.Latency) != 5 || objectiveValue(valid, coopt.EDP) != 15 {
		t.Error("objective extraction wrong")
	}
}
