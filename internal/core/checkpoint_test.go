package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// seededEngine builds a fresh problem and a NewSeeded engine over it with
// the given config mutation applied on top of the defaults. A fresh
// problem per run also exercises the configSum fingerprint across problem
// instances — resume must accept an equivalent problem, not the same
// pointer.
func seededEngine(t *testing.T, model string, seed int64, mutate func(*Config)) *Engine {
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
	return e
}

// compareResumed asserts everything the checkpoint contract pins
// bit-identical between an uninterrupted run and a resumed one: the best
// genome and fitness, the sample accounting split, the generation count
// and the full fitness history. LayersReused and the pool counters are
// deliberately excluded — identity-based block sharing across individuals
// is not reconstructed on resume, so only those telemetry values may
// drift (the search itself cannot: it never reads them).
func compareResumed(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Best.Fitness != want.Best.Fitness {
		t.Errorf("%s: best fitness %x, want %x", label, got.Best.Fitness, want.Best.Fitness)
	}
	if !reflect.DeepEqual(got.Best.Genome, want.Best.Genome) {
		t.Errorf("%s: best genome differs", label)
	}
	if got.Samples != want.Samples || got.Generations != want.Generations {
		t.Errorf("%s: samples/gens %d/%d, want %d/%d",
			label, got.Samples, got.Generations, want.Samples, want.Generations)
	}
	if got.FullEvals != want.FullEvals || got.PrunedEvals != want.PrunedEvals ||
		got.ScoutEvals != want.ScoutEvals || got.DeltaEvals != want.DeltaEvals {
		t.Errorf("%s: eval split full/pruned/scout/delta %d/%d/%d/%d, want %d/%d/%d/%d",
			label, got.FullEvals, got.PrunedEvals, got.ScoutEvals, got.DeltaEvals,
			want.FullEvals, want.PrunedEvals, want.ScoutEvals, want.DeltaEvals)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Errorf("%s: histories differ:\n%v\n%v", label, got.History, want.History)
	}
}

// TestResumeBitIdentical is the durability tentpole's golden: for two
// models across three seeds, single- and multi-island (with a scout in the
// ring) and prune on/off, a run resumed from EVERY checkpoint boundary of
// an uninterrupted run reproduces that run's Result bit-identically.
// CheckpointEvery=1 makes every generation a boundary, and each checkpoint
// is pushed through Marshal/UnmarshalCheckpoint so the JSON round-trip is
// part of the property.
func TestResumeBitIdentical(t *testing.T) {
	const budget = 240
	for _, model := range []string{"resnet18", "ncf"} {
		for _, k := range []int{1, 4} {
			for _, prune := range []bool{false, true} {
				mutate := func(c *Config) {
					c.CheckpointEvery = 1
					c.Prune = prune
					if k > 1 {
						c.Islands = k
						c.MigrateEvery = 2
						c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
					}
				}
				t.Run(fmt.Sprintf("%s/islands=%d/prune=%t", model, k, prune), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						var cks []*Checkpoint
						e := seededEngine(t, model, seed, mutate)
						e.OnCheckpoint = func(ck *Checkpoint) {
							blob, err := ck.Marshal()
							if err != nil {
								t.Fatalf("seed %d: marshal: %v", seed, err)
							}
							rt, err := UnmarshalCheckpoint(blob)
							if err != nil {
								t.Fatalf("seed %d: unmarshal: %v", seed, err)
							}
							cks = append(cks, rt)
						}
						want, err := e.Run(budget)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if len(cks) == 0 {
							t.Fatalf("seed %d: no checkpoints emitted", seed)
						}
						for _, ck := range cks {
							re := seededEngine(t, model, seed, mutate)
							re.Resume = ck
							got, err := re.Run(budget)
							if err != nil {
								t.Fatalf("seed %d gen %d: resume: %v", seed, ck.Generations, err)
							}
							compareResumed(t, fmt.Sprintf("seed %d resumed@gen %d", seed, ck.Generations), want, got)
						}
					}
				})
			}
		}
	}
}

// rngCalls makes one round of every rand.Rand call the engine's streams
// see and returns what they yielded.
func rngCalls(r *rand.Rand, n int) []any {
	deck := []int{0, 1, 2, 3, 4, 5, 6}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return []any{r.Int63(), r.Uint64(), r.Intn(n), r.Intn(1 << 40), r.Float64(), r.Perm(n), deck}
}

// TestReplaySourceMatchesRandSource pins that the draw-counting source is
// pure bookkeeping: over every rand.Rand call the engine makes, a stream
// on newReplaySource(seed) yields exactly rand.NewSource(seed)'s values,
// and its counter is the exact number of state advances — fast-forwarding
// a fresh source by it lands on the live source's next value, and one
// advance fewer does not.
func TestReplaySourceMatchesRandSource(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 55, -9, 1 << 40} {
		src := newReplaySource(seed)
		plain := rand.NewSource(seed).(rand.Source64)
		got, want := rand.New(src), rand.New(plain)
		for round := 0; round < 50; round++ {
			n := 1 + round%13
			if g, w := rngCalls(got, n), rngCalls(want, n); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d round %d: replay stream %v, rand.NewSource stream %v", seed, round, g, w)
			}
		}
		next := plain.Uint64()
		for _, lag := range []uint64{0, 1} {
			fresh := newReplaySource(seed)
			fresh.fastForward(src.n - lag)
			if hit := fresh.Uint64() == next; hit != (lag == 0) {
				t.Errorf("seed %d: a fresh source %d advances behind the counter (%d) lands on the live next value: %v", seed, lag, src.n, hit)
			}
		}
	}
}

// TestDrainCheckpointResumes exercises the graceful-drain path end to end:
// a context cancelled mid-run (from the OnEvaluation hook, so the
// cancellation is detected at the next generation boundary — exactly where
// a server drain lands) emits a final checkpoint, and resuming from that
// checkpoint completes with the uninterrupted run's exact Result.
func TestDrainCheckpointResumes(t *testing.T) {
	const budget = 240
	mutate := func(c *Config) { c.CheckpointEvery = 1000 } // periodic emission effectively off

	golden := seededEngine(t, "resnet18", 3, mutate)
	want, err := golden.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := seededEngine(t, "resnet18", 3, mutate)
	e.OnEvaluation = func(sample int, ev *coopt.Evaluation) {
		if sample == 3*e.Config.PopSize {
			cancel() // mid-generation; detected at the next boundary
		}
	}
	var last *Checkpoint
	e.OnCheckpoint = func(ck *Checkpoint) {
		blob, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if last, err = UnmarshalCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunContext(ctx, budget); !errors.Is(err, ErrCancelled) {
		t.Fatalf("drained run: err = %v, want ErrCancelled", err)
	}
	if last == nil {
		t.Fatal("drained run emitted no final checkpoint")
	}

	re := seededEngine(t, "resnet18", 3, mutate)
	re.Resume = last
	got, err := re.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	compareResumed(t, fmt.Sprintf("drain@gen %d", last.Generations), want, got)
}

// TestResumeRejectsMismatch: a checkpoint must only ever restore into the
// run it came from — wrong seed, budget, config or problem are refused
// with an error instead of silently diverging.
func TestResumeRejectsMismatch(t *testing.T) {
	const budget = 200
	e := seededEngine(t, "resnet18", 1, func(c *Config) { c.CheckpointEvery = 2 })
	var ck *Checkpoint
	e.OnCheckpoint = func(c *Checkpoint) {
		if ck == nil {
			ck = c
		}
	}
	if _, err := e.Run(budget); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}

	cases := []struct {
		name   string
		engine func(t *testing.T) *Engine
		budget int
	}{
		{"seed", func(t *testing.T) *Engine {
			return seededEngine(t, "resnet18", 2, func(c *Config) { c.CheckpointEvery = 2 })
		}, budget},
		{"budget", func(t *testing.T) *Engine {
			return seededEngine(t, "resnet18", 1, func(c *Config) { c.CheckpointEvery = 2 })
		}, budget + 40},
		{"config", func(t *testing.T) *Engine {
			return seededEngine(t, "resnet18", 1, func(c *Config) { c.CheckpointEvery = 2; c.Prune = true })
		}, budget},
		{"problem", func(t *testing.T) *Engine {
			return seededEngine(t, "ncf", 1, func(c *Config) { c.CheckpointEvery = 2 })
		}, budget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			re := tc.engine(t)
			re.Resume = ck
			if _, err := re.Run(tc.budget); err == nil {
				t.Error("mismatched resume succeeded, want error")
			}
		})
	}

	t.Run("version", func(t *testing.T) {
		blob, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bad := *ck
		bad.Version = CheckpointVersion + 1
		blob, err = bad.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCheckpoint(blob); err == nil {
			t.Error("future-version checkpoint decoded, want error")
		}
	})
}

// TestBestEffortPartial pins the opt-in degraded semantics: a cancelled
// run under Config.BestEffort returns its best-so-far Result alongside
// the ErrCancelled-wrapped error, while the default path keeps returning
// nil (context_test.go pins that half).
func TestBestEffortPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := seededEngine(t, "resnet18", 1, func(c *Config) { c.BestEffort = true })
	gens := 0
	e.OnGeneration = func(p Progress) {
		gens++
		if p.Generation == 2 {
			cancel()
		}
	}
	res, err := e.RunContext(ctx, 100000)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if res == nil {
		t.Fatal("best-effort cancelled run returned no partial result")
	}
	if res.Best == nil || res.Best.Fitness <= 0 {
		t.Fatalf("partial result has no usable best: %+v", res.Best)
	}
	if res.Generations != 2 {
		t.Errorf("partial result at generation %d, want 2", res.Generations)
	}
	if res.Samples >= 100000 {
		t.Errorf("partial result claims full budget spent: %d", res.Samples)
	}
}
