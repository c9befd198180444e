package core

import (
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// runPrune executes one resnet18 edge-latency search with the screen on
// or off, serially (worker count never changes results; serial keeps the
// test deterministic and cheap).
func runPrune(t *testing.T, prune bool, budget int, seed int64) *Result {
	t.Helper()
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
	cfg.Prune = prune
	eng, err := NewSeeded(p, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pruneWindowBudget is the largest budget at which the screened search is
// provably exact: one full exploration generation plus one screened
// generation whose children never breed (2·PopSize − elites). Within it,
// every pruned candidate's true fitness provably exceeds the incumbent —
// which upper-bounds the final best — and the bred candidate stream is
// identical, so the final best must match the unpruned run's exactly.
func pruneWindowBudget(cfg Config) int {
	elites := min(max(int(float64(cfg.PopSize)*cfg.EliteFrac), 1), cfg.PopSize)
	return 2*cfg.PopSize - elites
}

// TestPruneWindowSameBest pins the acceptance property on resnet18: in
// the provable window the pruned search returns bit-for-bit the same
// final best fitness as the unpruned search on every seed, while skipping
// ≥ 25% of full-model evaluations in aggregate.
func TestPruneWindowSameBest(t *testing.T) {
	budget := pruneWindowBudget(DefaultConfig())
	fullBase, fullPruned := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		base := runPrune(t, false, budget, seed)
		pruned := runPrune(t, true, budget, seed)
		if base.Best.Fitness != pruned.Best.Fitness {
			t.Errorf("seed %d: pruned best %.9e != unpruned %.9e",
				seed, pruned.Best.Fitness, base.Best.Fitness)
		}
		if base.FullEvals != base.Samples || base.PrunedEvals != 0 {
			t.Errorf("seed %d: unpruned run reports %d/%d pruned evals", seed, base.PrunedEvals, base.Samples)
		}
		if pruned.FullEvals+pruned.PrunedEvals != pruned.Samples {
			t.Errorf("seed %d: eval split %d+%d != %d samples",
				seed, pruned.FullEvals, pruned.PrunedEvals, pruned.Samples)
		}
		fullBase += base.FullEvals
		fullPruned += pruned.FullEvals
	}
	cut := 1 - float64(fullPruned)/float64(fullBase)
	if cut < 0.25 {
		t.Errorf("full-model evaluations cut by %.1f%%, want ≥ 25%%", 100*cut)
	}
	t.Logf("window budget %d: full evals %d → %d (−%.1f%%), best fitness identical on all seeds",
		budget, fullBase, fullPruned, 100*cut)
}

// TestPruneSoundness covers full-length screened runs: the reported best
// is always a fully-analyzed design point whose fitness re-derives
// bit-identically from an unpruned evaluation, every pruned candidate's
// recorded bound exceeds the final best, and the screen removes a large
// share of full-model evaluations.
func TestPruneSoundness(t *testing.T) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		r := runPrune(t, true, 400, seed)
		if r.Best.Pruned {
			t.Fatalf("seed %d: search returned a bound-screened point as best", seed)
		}
		p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := p.Evaluate(r.Best.Genome)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Fitness != r.Best.Fitness {
			t.Errorf("seed %d: best re-evaluates to %.9e, search reported %.9e",
				seed, ev.Fitness, r.Best.Fitness)
		}
		if cut := 1 - float64(r.FullEvals)/float64(r.Samples); cut < 0.25 {
			t.Errorf("seed %d: only %.1f%% of evaluations screened", seed, 100*cut)
		}
	}
}

// TestPruneDisabledIsDefault: with the screen off the engine books every
// sample as a full evaluation — the field exists but the default path
// does not consult bounds at all.
func TestPruneDisabledIsDefault(t *testing.T) {
	r := runPrune(t, false, 120, 1)
	if r.PrunedEvals != 0 || r.FullEvals != r.Samples {
		t.Errorf("unpruned run: %d full + %d pruned of %d samples", r.FullEvals, r.PrunedEvals, r.Samples)
	}
}

// TestPruneProgressCounters: the per-generation snapshots expose the
// full/pruned split and it matches the final result.
func TestPruneProgressCounters(t *testing.T) {
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
	cfg.Prune = true
	eng, err := NewSeeded(p, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	eng.OnGeneration = func(pr Progress) { last = pr }
	r, err := eng.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if last.FullEvals != r.FullEvals || last.PrunedEvals != r.PrunedEvals {
		t.Errorf("final progress %d/%d, result %d/%d",
			last.FullEvals, last.PrunedEvals, r.FullEvals, r.PrunedEvals)
	}
	if last.PrunedEvals == 0 {
		t.Error("screened run reported no pruned evaluations")
	}
}
