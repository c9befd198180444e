package core

import (
	"reflect"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/obs"
	"digamma/internal/workload"
)

// runTraced executes one search, optionally with a tracer installed, and
// returns both the result and the tracer.
func runTraced(t *testing.T, model string, seed int64, traced bool, mutate func(*Config)) (*Result, *obs.Tracer) {
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
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer(0)
		e.Trace = tr
	}
	r, err := e.Run(480)
	if err != nil {
		t.Fatal(err)
	}
	return r, tr
}

// TestTracingBitIdentical pins the off-the-RNG-stream contract: a traced
// run and an untraced run with the same seed must produce the exact same
// Samples, Generations, Best and History — tracing reads only the clock
// and counters the search already computed, never the RNG streams.
// Exercised across the default engine, pruning, and a heterogeneous
// island ring with a scout (migration + re-score paths).
func TestTracingBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		model  string
		mutate func(*Config)
	}{
		{"default", "resnet18", nil},
		{"prune", "resnet18", func(c *Config) { c.Prune = true }},
		{"islands", "ncf", func(c *Config) {
			c.Islands = 4
			c.MigrateEvery = 2
			c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				on, _ := runTraced(t, tc.model, seed, true, tc.mutate)
				off, _ := runTraced(t, tc.model, seed, false, tc.mutate)
				if on.Samples != off.Samples || on.Generations != off.Generations {
					t.Errorf("seed %d: samples/gens %d/%d (traced) != %d/%d (untraced)",
						seed, on.Samples, on.Generations, off.Samples, off.Generations)
				}
				if on.Best.Fitness != off.Best.Fitness {
					t.Errorf("seed %d: best %x (traced) != %x (untraced)", seed, on.Best.Fitness, off.Best.Fitness)
				}
				if !reflect.DeepEqual(on.History, off.History) {
					t.Errorf("seed %d: histories differ:\n%v\n%v", seed, on.History, off.History)
				}
				if !reflect.DeepEqual(on.Best.Genome, off.Best.Genome) {
					t.Errorf("seed %d: best genomes differ", seed)
				}
			}
		})
	}
}

// TestTracerRecordsRun asserts the tracer actually observed the search:
// phase spans for init/breed/evaluate/finalize, per-operator attribution
// with sane accounting, and one island stat per island.
func TestTracerRecordsRun(t *testing.T) {
	res, tr := runTraced(t, "ncf", 1, true, func(c *Config) {
		c.Islands = 2
		c.MigrateEvery = 2
	})
	snap := tr.Snapshot()

	byName := map[string]int{}
	var full, delta, pruned, n int32
	for _, sp := range snap.Spans {
		byName[sp.Name]++
		if sp.Cat != obs.CatPhase {
			t.Errorf("engine recorded non-phase span %q/%q", sp.Cat, sp.Name)
		}
		if sp.Name == obs.PhaseEvaluate || sp.Name == obs.PhaseInit {
			full += sp.Full
			delta += sp.Delta
			pruned += sp.Pruned
			n += sp.N
		}
	}
	for _, want := range []string{obs.PhaseInit, obs.PhaseBreed, obs.PhaseEvaluate, obs.PhaseMigrate, obs.PhaseFinalize} {
		if byName[want] == 0 {
			t.Errorf("no %q span recorded (have %v)", want, byName)
		}
	}
	// Every sample the run spent is accounted in exactly one evaluate slot.
	if int(n) != res.Samples {
		t.Errorf("span N sum %d != samples %d", n, res.Samples)
	}
	if int(full+delta+pruned) != res.Samples {
		t.Errorf("full+delta+pruned = %d != samples %d", full+delta+pruned, res.Samples)
	}
	if int(delta) != res.DeltaEvals {
		t.Errorf("span delta sum %d != result DeltaEvals %d", delta, res.DeltaEvals)
	}

	var children uint64
	for _, st := range snap.Ops {
		children += st.Children
		if st.Wins > st.Children {
			t.Errorf("op wins %d > children %d", st.Wins, st.Children)
		}
	}
	if children == 0 {
		t.Error("no operator attribution recorded")
	}

	if len(snap.Islands) != 2 {
		t.Fatalf("island stats = %d, want 2", len(snap.Islands))
	}
	var samples int64
	for _, is := range snap.Islands {
		samples += is.Samples
		if is.Profile == "" {
			t.Errorf("island %d has no profile name", is.Island)
		}
		if is.Generations == 0 {
			t.Errorf("island %d never observed", is.Island)
		}
	}
	if int(samples) != res.Samples {
		t.Errorf("island samples sum %d != run samples %d", samples, res.Samples)
	}

	// The report built from a real run is sane: phases present, spans sum
	// to something positive, and the eval split matches the run counters.
	rep := obs.BuildReport(snap)
	if len(rep.Phases) == 0 || len(rep.Operators) == 0 || len(rep.Islands) != 2 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

// TestTracerCheckpointSpan asserts emitCheckpoint records its span.
func TestTracerCheckpointSpan(t *testing.T) {
	p := newProblem(t)
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 2
	e, err := NewSeeded(p, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	e.OnCheckpoint = func(*Checkpoint) {}
	tr := obs.NewTracer(0)
	e.Trace = tr
	if _, err := e.Run(480); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == obs.PhaseCkpt {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint span recorded")
	}
}
