package core

import (
	"reflect"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// runDelta executes one 480-sample search on a fresh problem with the
// given config mutation applied on top of the defaults.
func runDelta(t *testing.T, model string, seed int64, mutate func(*Config)) *Result {
	t.Helper()
	m, err := workload.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := coopt.NewProblem(m, arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewSeeded(p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(480)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeltaBitIdentical is the engine-level half of the delta equivalence
// property: whole searches with the dirty-layer delta path on (the
// default) and off must produce the exact same Samples, Generations,
// Best and History — across pruning, islands (with a scout in the ring),
// worker counts and the fixed-HW GAMMA mode, and with the structural
// operators cranked up so grow/age dirty-set handling is exercised.
func TestDeltaBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		model  string
		mutate func(*Config)
	}{
		{"default", "resnet18", nil},
		{"workers", "resnet18", func(c *Config) { c.Workers = 8 }},
		{"prune", "resnet18", func(c *Config) { c.Prune = true }},
		{"structural", "ncf", func(c *Config) { c.GrowRate, c.AgeRate = 0.4, 0.4 }},
		{"islands", "ncf", func(c *Config) {
			c.Islands = 4
			c.MigrateEvery = 2
			c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				on := runDelta(t, tc.model, seed, tc.mutate)
				off := runDelta(t, tc.model, seed, func(c *Config) {
					if tc.mutate != nil {
						tc.mutate(c)
					}
					c.NoDelta = true
				})
				if on.Samples != off.Samples || on.Generations != off.Generations {
					t.Errorf("seed %d: samples/gens %d/%d (delta) != %d/%d (full)",
						seed, on.Samples, on.Generations, off.Samples, off.Generations)
				}
				if on.Best.Fitness != off.Best.Fitness {
					t.Errorf("seed %d: best %x (delta) != %x (full)", seed, on.Best.Fitness, off.Best.Fitness)
				}
				if !reflect.DeepEqual(on.History, off.History) {
					t.Errorf("seed %d: histories differ:\n%v\n%v", seed, on.History, off.History)
				}
				if !reflect.DeepEqual(on.Best.Genome, off.Best.Genome) {
					t.Errorf("seed %d: best genomes differ", seed)
				}
				if off.DeltaEvals != 0 {
					t.Errorf("seed %d: NoDelta run reported %d delta evals", seed, off.DeltaEvals)
				}
				// LayersReused also counts migration re-score cache hits,
				// which NoDelta does not disable — so it may be non-zero
				// for island runs, but must be zero without migration.
				if tc.name != "islands" && off.LayersReused != 0 {
					t.Errorf("seed %d: NoDelta run reported %d reused layers", seed, off.LayersReused)
				}
				if tc.name != "structural" && on.DeltaEvals == 0 {
					t.Errorf("seed %d: delta run never took the delta path", seed)
				}
			}
		})
	}
}

// TestDeltaBitIdenticalGamma repeats the equivalence in fixed-HW (GAMMA)
// mode, where the HW genes are frozen and every child is delta-eligible.
func TestDeltaBitIdenticalGamma(t *testing.T) {
	run := func(noDelta bool) *Result {
		p := newProblem(t)
		hw := arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}}
		fp, err := p.WithFixedHW(hw)
		if err != nil {
			t.Fatal(err)
		}
		cfg := GammaConfig()
		cfg.NoDelta = noDelta
		e, err := NewSeeded(fp, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(420)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	on, off := run(false), run(true)
	if on.Best.Fitness != off.Best.Fitness || !reflect.DeepEqual(on.History, off.History) {
		t.Fatalf("GAMMA delta diverged: best %x vs %x", on.Best.Fitness, off.Best.Fitness)
	}
	if on.DeltaEvals == 0 {
		t.Fatal("GAMMA run never took the delta path")
	}
}

// TestDeltaReuseByGeneration5 pins the delta economics the tentpole
// claims (the successor of the full-path cache-hit-rate pin): in a
// default resnet18 search, most bred children take the delta path, and
// the layers they clone from their parents are a solid share of all layer
// scores — work that no longer pays even for a hash.
func TestDeltaReuseByGeneration5(t *testing.T) {
	r := runDelta(t, "resnet18", 1, func(c *Config) { c.Workers = 1 })
	bred := r.Samples - DefaultConfig().PopSize // children after the initial population
	if bred <= 0 {
		t.Fatal("run too short to breed")
	}
	if frac := float64(r.DeltaEvals) / float64(bred); frac < 0.5 {
		t.Fatalf("only %.0f%% of bred children took the delta path (%d/%d)",
			frac*100, r.DeltaEvals, bred)
	}
	if r.LayersReused == 0 {
		t.Fatal("delta path reused no layer analyses")
	}
	// Average clean layers per delta child: with ~3 expected mutated
	// layers per child on resnet18's unique layers, well over a third of
	// the per-layer work should be cloned rather than recomputed.
	model, _ := workload.ByName("resnet18")
	L := len(model.UniqueLayers())
	if frac := float64(r.LayersReused) / float64(r.DeltaEvals*L); frac < 0.33 {
		t.Fatalf("delta children reused only %.0f%% of their layers", frac*100)
	}
}

// TestPoolReuseSteadyState pins the zero-allocation loop's economics: by
// the end of a default search, most Evaluation buffers come from the
// recycled freelist rather than fresh slabs, and the counters surface
// through the Result.
func TestPoolReuseSteadyState(t *testing.T) {
	r := runDelta(t, "ncf", 2, nil)
	if r.PoolGets == 0 {
		t.Fatal("pool never used")
	}
	if rate := float64(r.PoolReuses) / float64(r.PoolGets); rate < 0.5 {
		t.Fatalf("pool reuse rate %.2f, want ≥ 0.5 (%d/%d)", rate, r.PoolReuses, r.PoolGets)
	}
}

// TestPoolRecycleDisabledWithHook pins the retention gate: an
// OnEvaluation hook may retain evaluations, so recycling must switch off
// — and every retained evaluation must stay intact (distinct pointers,
// fitness re-derivable) to the end of the run.
func TestPoolRecycleDisabledWithHook(t *testing.T) {
	p := newProblem(t)
	cfg := DefaultConfig()
	cfg.Workers = 1
	e, err := NewSeeded(p, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*coopt.Evaluation
	var fits []float64
	e.OnEvaluation = func(sample int, ev *coopt.Evaluation) {
		seen = append(seen, ev)
		fits = append(fits, ev.Fitness)
	}
	r, err := e.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.PoolReuses != 0 {
		t.Fatalf("pool recycled %d buffers under an OnEvaluation hook", r.PoolReuses)
	}
	// No buffer may have been handed out twice.
	uniq := map[*coopt.Evaluation]bool{}
	for i, ev := range seen {
		if uniq[ev] {
			t.Fatal("evaluation buffer reused despite hook")
		}
		uniq[ev] = true
		if ev.Fitness != fits[i] {
			t.Fatalf("retained evaluation %d was overwritten: %x != %x", i, ev.Fitness, fits[i])
		}
	}
}
