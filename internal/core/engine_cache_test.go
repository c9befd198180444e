package core

import (
	"reflect"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// runWith executes one search with the given worker count and cache flag on
// a fresh but identical problem.
func runWith(t *testing.T, workers int, cached bool, seed int64, budget int) *Result {
	t.Helper()
	p := newProblem(t)
	if !cached {
		p.Cache = nil
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
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

// sameResult compares the caller-visible search outcome exactly.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Samples != b.Samples {
		t.Errorf("%s: samples %d != %d", label, a.Samples, b.Samples)
	}
	if a.Generations != b.Generations {
		t.Errorf("%s: generations %d != %d", label, a.Generations, b.Generations)
	}
	if a.Best.Fitness != b.Best.Fitness {
		t.Errorf("%s: best fitness %g != %g", label, a.Best.Fitness, b.Best.Fitness)
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Errorf("%s: histories differ:\n%v\n%v", label, a.History, b.History)
	}
}

// TestWorkersBitIdentical: the full Result (Samples, Best.Fitness, History)
// must match exactly across worker counts.
func TestWorkersBitIdentical(t *testing.T) {
	ref := runWith(t, 1, true, 42, 600)
	for _, workers := range []int{2, 4, 8} {
		got := runWith(t, workers, true, 42, 600)
		sameResult(t, "workers", ref, got)
	}
}

// TestCacheBitIdentical: caching on vs off must not change any search
// outcome, serial or parallel.
func TestCacheBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		on := runWith(t, workers, true, 7, 600)
		off := runWith(t, workers, false, 7, 600)
		sameResult(t, "cache", on, off)
	}
}

// TestCacheHitRateByGeneration5 pins the economics the PR-1 tentpole
// claims: by generation 5 on resnet18 the evalcache serves the majority
// of layer analyses (elites, crossover blocks and untouched layers
// recur). The all-miss initial population would drown a cumulative ratio
// at such a small budget, so the test measures the rate *of* generation 5
// by diffing two deterministic runs — same seed, one generation apart.
// The delta path is switched off: it deliberately skips the probe for
// exactly the layers that would have hit (clean blocks reuse the parent's
// analysis without touching the cache), so the full-path economics it
// supersedes are only observable with NoDelta (the delta equivalent is
// TestDeltaReuseByGeneration5).
func TestCacheHitRateByGeneration5(t *testing.T) {
	statsAfter := func(waves int) (uint64, uint64) {
		model, err := workload.ByName("resnet18")
		if err != nil {
			t.Fatal(err)
		}
		p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.NoDelta = true
		e, err := NewSeeded(p, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// One wave = PopSize samples: the initial population, then one
		// bred generation per extra wave.
		if _, err := e.Run(cfg.PopSize * waves); err != nil {
			t.Fatal(err)
		}
		st := p.Cache.Stats()
		return st.Hits, st.Misses
	}

	// Waves 1..5 = initial population + generations 1-4; wave 6 is
	// generation 5. Identical seeds make the shorter run an exact prefix.
	h5, m5 := statsAfter(5)
	h6, m6 := statsAfter(6)
	hits, total := h6-h5, (h6+m6)-(h5+m5)
	if total == 0 {
		t.Fatal("generation 5 performed no lookups")
	}
	rate := float64(hits) / float64(total)
	if rate <= 0.5 {
		t.Fatalf("generation-5 hit rate %.3f, want > 0.5 (%d/%d)", rate, hits, total)
	}
	// And the cumulative rate keeps climbing past the cold start.
	if cum := float64(h6) / float64(h6+m6); cum < 0.4 {
		t.Fatalf("cumulative hit rate %.3f after generation 5, want ≥ 0.4", cum)
	}
}

// TestBredGenomesCanonical pins the invariant EvaluateCanonical relies on:
// every genome the engine evaluates — across co-opt, fixed-HW and grow/age
// activity — is exactly what Space.Repair would return.
func TestBredGenomesCanonical(t *testing.T) {
	check := func(t *testing.T, p *coopt.Problem, cfg Config) {
		t.Helper()
		e, err := NewSeeded(p, cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		e.OnEvaluation = func(sample int, ev *coopt.Evaluation) {
			g := ev.Genome
			repaired := p.Space.Repair(g)
			if !reflect.DeepEqual(repaired, g) {
				t.Fatalf("sample %d: evaluated genome is not canonical:\n got %v\nwant %v", sample, g, repaired)
			}
			checked++
		}
		if _, err := e.Run(400); err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatal("no genomes checked")
		}
	}

	t.Run("coopt", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		// Exercise grow/age heavily so the structural operators are covered.
		cfg.GrowRate, cfg.AgeRate = 0.4, 0.4
		check(t, newProblem(t), cfg)
	})
	t.Run("fixed-hw", func(t *testing.T) {
		hw := arch.HW{Fanouts: []int{8, 4}, BufBytes: []int64{1 << 10, 64 << 10}}
		fp, err := newProblem(t).WithFixedHW(hw)
		if err != nil {
			t.Fatal(err)
		}
		cfg := GammaConfig()
		cfg.Workers = 1
		check(t, fp, cfg)
	})
}
