package coopt

import (
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/workload"
)

// TestFitnessBoundLeqFitness: the screening bound must never exceed the
// true fitness — for every objective, in co-opt and fixed-HW modes, under
// the analytical and physical tiers. A violation here would let the
// pruned engine discard a candidate that could have won.
func TestFitnessBoundLeqFitness(t *testing.T) {
	model, err := workload.ByName("mnasnet")
	if err != nil {
		t.Fatal(err)
	}
	backends := []cost.Backend{nil, cost.DefaultPhysical()}
	for _, obj := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
		for bi, backend := range backends {
			base, err := NewProblem(model, arch.Edge(), obj)
			if err != nil {
				t.Fatal(err)
			}
			problems := []*Problem{base.WithBackend(backend)}
			fixed, err := problems[0].WithFixedHW(arch.HW{
				Fanouts: []int{16, 8}, BufBytes: []int64{2 << 10, 256 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			problems = append(problems, fixed)

			rng := rand.New(rand.NewSource(int64(31 + bi)))
			for _, p := range problems {
				for trial := 0; trial < 300; trial++ {
					g := p.Space.Repair(p.Space.Random(rng, 2))
					ev, err := p.Evaluate(g)
					if err != nil {
						t.Fatal(err)
					}
					if b := p.FitnessBound(g); b > ev.Fitness {
						t.Fatalf("%v/%s: bound %.9e > fitness %.9e (valid=%v)",
							obj, p.Backend().Name(), b, ev.Fitness, ev.Valid)
					}
				}
			}
		}
	}
}

// TestWithBackendIsolation: tiers get their own caches, score the same
// genome differently where the physics says they must, and the default
// problem is left untouched.
func TestWithBackendIsolation(t *testing.T) {
	model, err := workload.ByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, arch.Edge(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	phys := p.WithBackend(cost.DefaultPhysical())
	if phys == p || phys.Cache == p.Cache {
		t.Fatal("WithBackend shared the problem or its cache")
	}
	if p.backend != nil || p.Contexts()[0] == phys.Contexts()[0] {
		t.Fatal("WithBackend mutated the receiver or kept its key contexts")
	}

	g := p.Space.Repair(p.Space.Random(rand.New(rand.NewSource(5)), 2))
	evA, err := p.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	evP, err := phys.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// The physical tier imposes an off-chip floor and hop-priced NoC
	// energy: the same design point cannot score easier, and its derived
	// hardware must carry the interconnect model.
	if evP.Cycles < evA.Cycles {
		t.Errorf("physical cycles %.3e below analytical %.3e", evP.Cycles, evA.Cycles)
	}
	if evP.HW.NoC == nil || evP.HW.DRAMWordsPerCycle <= 0 {
		t.Error("physical evaluation lost its derived hardware parameters")
	}
	if evA.HW.NoC != nil {
		t.Error("analytical evaluation grew a NoC model")
	}

	// Same tier, fresh problem: deterministic.
	phys2 := p.WithBackend(cost.DefaultPhysical())
	evP2, err := phys2.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if evP2.Fitness != evP.Fitness {
		t.Errorf("physical tier not deterministic: %.9e vs %.9e", evP2.Fitness, evP.Fitness)
	}
}

// TestOneCacheKeepsTiersApart: an analytical and a physical problem wired
// to one L1 still each get their own tier's analysis of the same genome,
// on the miss that fills the cache and on the hits after it — the key
// contexts fold in the backend, so the tiers never share a key.
func TestOneCacheKeepsTiersApart(t *testing.T) {
	model, err := workload.ByName("mnasnet")
	if err != nil {
		t.Fatal(err)
	}
	ana, err := NewProblem(model, arch.Edge(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	phys := ana.WithBackend(cost.DefaultPhysical())
	phys.Cache = ana.Cache
	coldAna, coldPhys := *ana, *phys
	coldAna.Cache, coldPhys.Cache = nil, nil

	rng := rand.New(rand.NewSource(17))
	separated := false
	for trial := 0; trial < 40; trial++ {
		g := ana.Space.Repair(ana.Space.Random(rng, 2))
		for rep := 0; rep < 2; rep++ {
			for _, tier := range []struct{ warm, cold *Problem }{{ana, &coldAna}, {phys, &coldPhys}} {
				ew, err := tier.warm.Evaluate(g)
				if err != nil {
					t.Fatal(err)
				}
				ec, err := tier.cold.Evaluate(g)
				if err != nil {
					t.Fatal(err)
				}
				for li := range ew.Layers {
					if w, c := ew.Layers[li].Score, ec.Layers[li].Score; w.Cycles != c.Cycles || w.DRAMWords != c.DRAMWords {
						t.Fatalf("%s trial %d rep %d layer %d: shared L1 served %.9e cycles, tier computes %.9e",
							tier.warm.Backend().Name(), trial, rep, li, w.Cycles, c.Cycles)
					}
				}
			}
		}
		a, err := coldAna.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := coldPhys.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		separated = separated || a.Cycles != ph.Cycles
	}
	if !separated {
		t.Fatal("the tiers never scored a genome differently: the test separates nothing")
	}
	if st := ana.Cache.Stats(); st.Hits == 0 {
		t.Fatalf("the shared L1 never hit: %+v", st)
	}
}

// TestBoundBackendEvaluate: a problem scored by the bound tier stays a
// lower bound on the analytical tier's fitness for the same genome.
func TestBoundBackendEvaluate(t *testing.T) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, arch.Edge(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	lo := p.WithBackend(cost.Bound{})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		g := p.Space.Repair(p.Space.Random(rng, 2))
		evA, err := p.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		evL, err := lo.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		if evL.Cycles > evA.Cycles {
			t.Fatalf("bound tier cycles %.9e > analytical %.9e", evL.Cycles, evA.Cycles)
		}
	}
}

// TestPrunedEvaluation pins the pruned-evaluation contract the engine
// relies on: fitness carries the bound, no per-layer detail, marked.
func TestPrunedEvaluation(t *testing.T) {
	model, err := workload.ByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, arch.Edge(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Space.Repair(p.Space.Random(rand.New(rand.NewSource(2)), 2))
	ev := PrunedEvaluation(g, 123.5)
	if !ev.Pruned || ev.Fitness != 123.5 || len(ev.Layers) != 0 || ev.Valid {
		t.Errorf("pruned evaluation contract broken: %+v", ev)
	}
}
