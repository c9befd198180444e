package core

import (
	"reflect"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// runTarget executes one ncf search with the given target threshold.
func runTarget(t *testing.T, seed int64, target float64, mutate func(*Config)) *Result {
	t.Helper()
	m, err := workload.ByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := coopt.NewProblem(m, arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Target = target
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

// TestTargetEarlyStop pins time-to-target mode: a trivially loose target
// stops the run at the very first generation boundary (the initial
// population), a tighter-but-reachable one stops as soon as it is met
// mid-run with a best no worse than the threshold, and an impossible one
// burns the full budget — identical to Target = 0.
func TestTargetEarlyStop(t *testing.T) {
	full := runTarget(t, 1, 0, nil)
	if full.Samples != 480 {
		t.Fatalf("baseline run stopped early: %d samples", full.Samples)
	}

	// Loose: the conservatively seeded initial population already beats
	// 100× the converged fitness, so the run must stop after evaluating
	// exactly the initial population.
	loose := runTarget(t, 1, full.Best.Fitness*100, nil)
	if loose.Samples != DefaultConfig().PopSize {
		t.Errorf("loose target ran %d samples, want the initial population (%d)",
			loose.Samples, DefaultConfig().PopSize)
	}
	if loose.Best.Fitness > full.Best.Fitness*100 {
		t.Errorf("loose-target run stopped above its threshold: %g", loose.Best.Fitness)
	}

	// Reachable: 10% over the converged optimum takes some polish
	// generations but not the whole budget.
	mid := runTarget(t, 1, full.Best.Fitness*1.1, nil)
	if mid.Samples <= loose.Samples || mid.Samples >= full.Samples {
		t.Errorf("mid target ran %d samples, want strictly between %d and %d",
			mid.Samples, loose.Samples, full.Samples)
	}
	if mid.Best.Fitness > full.Best.Fitness*1.1 {
		t.Errorf("mid-target run stopped above its threshold: %g", mid.Best.Fitness)
	}

	// Impossible: a target below the best reachable fitness must change
	// nothing at all versus Target = 0 — same samples, best and history.
	never := runTarget(t, 1, full.Best.Fitness*0.5, nil)
	if never.Samples != full.Samples || never.Best.Fitness != full.Best.Fitness {
		t.Errorf("unreachable target diverged: %d samples best %g vs %d / %g",
			never.Samples, never.Best.Fitness, full.Samples, full.Best.Fitness)
	}
	if !reflect.DeepEqual(never.History, full.History) {
		t.Error("unreachable-target history diverged from the Target=0 run")
	}
}

// TestTargetDeterministic pins that time-to-target runs are a pure
// function of (seed, config) like every other mode — including with
// islands and a scout in the ring, where the stop scans only
// full-fidelity islands.
func TestTargetDeterministic(t *testing.T) {
	islands := func(c *Config) {
		c.Islands = 4
		c.MigrateEvery = 2
		c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
	}
	for _, mutate := range []func(*Config){nil, islands} {
		ref := runTarget(t, 3, 0, mutate)
		a := runTarget(t, 3, ref.Best.Fitness*1.2, mutate)
		b := runTarget(t, 3, ref.Best.Fitness*1.2, mutate)
		if a.Samples != b.Samples || a.Best.Fitness != b.Best.Fitness {
			t.Errorf("target runs diverged: %d/%g vs %d/%g",
				a.Samples, a.Best.Fitness, b.Samples, b.Best.Fitness)
		}
		if !reflect.DeepEqual(a.History, b.History) {
			t.Error("target run histories diverged across identical runs")
		}
		if a.Samples >= ref.Samples {
			t.Errorf("20%%-slack target did not stop early: %d vs %d samples", a.Samples, ref.Samples)
		}
	}
}
