package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"digamma/internal/coopt"
	"digamma/internal/cost"
	"digamma/internal/faults"
	"digamma/internal/obs"
)

// crewRun is everything a search shows its caller, for exact comparison.
type crewRun struct {
	res   *Result
	evals []float64 // OnEvaluation fitnesses in sample order (hook runs only)
}

func runCrewCase(t *testing.T, workers int, prune bool, islands int, traced, hook bool) crewRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Prune = prune
	cfg.Islands = islands
	cfg.MigrateEvery = 2
	e, err := NewSeeded(zooProblem(t, "ncf"), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		e.Trace = obs.NewTracer(0)
	}
	var run crewRun
	if hook {
		e.OnEvaluation = func(sample int, ev *coopt.Evaluation) {
			if sample != len(run.evals)+1 {
				t.Errorf("sample %d delivered after %d", sample, len(run.evals))
			}
			run.evals = append(run.evals, ev.Fitness)
		}
	}
	if run.res, err = e.Run(1200); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCrewBitIdentical: an evaluation crew scoring children while the
// island breeds must change nothing a caller can see. Every worker count
// is compared with the serial Workers=1 run of the same knobs — best
// design, history, every sample counter, the pool's buffer accounting and
// the OnEvaluation stream — with pruning, islands, tracing and the hook
// toggled. CI runs it under -race -count=10.
func TestCrewBitIdentical(t *testing.T) {
	for _, prune := range []bool{false, true} {
		for _, islands := range []int{1, 2} {
			for _, hook := range []bool{false, true} {
				ref := runCrewCase(t, 1, prune, islands, false, hook)
				for _, workers := range []int{1, 2, 3, 8} {
					for _, traced := range []bool{false, true} {
						name := fmt.Sprintf("prune=%t/islands=%d/hook=%t/workers=%d/traced=%t",
							prune, islands, hook, workers, traced)
						got := runCrewCase(t, workers, prune, islands, traced, hook)
						if !reflect.DeepEqual(got.res, ref.res) {
							t.Errorf("%s: result differs from the serial run:\n got %+v\nwant %+v", name, *got.res, *ref.res)
						}
						if !reflect.DeepEqual(got.evals, ref.evals) {
							t.Errorf("%s: OnEvaluation stream differs from the serial run", name)
						}
					}
				}
			}
		}
	}
}

// TestCrewStops: no crew helper outlives the call that started it —
// whether the run completes, is cancelled from OnGeneration, fails on an
// evaluation error, or returns a best-effort partial result. Stopping a
// crew waits for its helpers, so the live count must read zero the moment
// the call returns.
func TestCrewStops(t *testing.T) {
	if n := liveHelpers.Load(); n != 0 {
		t.Fatalf("%d crew helpers alive before any run", n)
	}
	engine := func(t *testing.T, mutate func(*Config)) *Engine {
		cfg := DefaultConfig()
		cfg.Workers = 3
		if mutate != nil {
			mutate(&cfg)
		}
		e, err := NewSeeded(zooProblem(t, "ncf"), cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// watch records the most helpers seen alive at a generation boundary
	// and cancels the run at generation cancelAt (0 = never).
	watch := func(e *Engine, cancel context.CancelFunc, cancelAt int) *int64 {
		var peak int64
		e.OnGeneration = func(p Progress) {
			peak = max(peak, liveHelpers.Load())
			if cancelAt > 0 && p.Generation == cancelAt {
				cancel()
			}
		}
		return &peak
	}
	check := func(t *testing.T, peak int64) {
		t.Helper()
		if peak == 0 {
			t.Error("no crew helper was ever alive: the crew path did not run")
		}
		if n := liveHelpers.Load(); n != 0 {
			t.Errorf("%d crew helpers outlived the run", n)
		}
	}

	t.Run("completed", func(t *testing.T) {
		e := engine(t, nil)
		peak := watch(e, nil, 0)
		if _, err := e.Run(400); err != nil {
			t.Fatal(err)
		}
		check(t, *peak)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := engine(t, nil)
		peak := watch(e, cancel, 3)
		if _, err := e.RunContext(ctx, 100_000); !errors.Is(err, context.Canceled) {
			t.Fatalf("want a cancellation, got %v", err)
		}
		check(t, *peak)
	})
	t.Run("best-effort", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := engine(t, func(c *Config) { c.BestEffort = true })
		peak := watch(e, cancel, 3)
		res, err := e.RunContext(ctx, 100_000)
		if !errors.Is(err, context.Canceled) || res == nil {
			t.Fatalf("want a partial result with a cancellation, got %v, %v", res, err)
		}
		check(t, *peak)
	})
	t.Run("evaluation-error", func(t *testing.T) {
		inj := faults.New(1)
		// ncf's 40-genome initial batch makes well under 400 analyses, so
		// the fault fires inside a generation, on the crew path.
		inj.Set(faults.PointBackend, faults.Knob{Every: 400})
		cfg := DefaultConfig()
		cfg.Workers = 3
		e, err := NewSeeded(zooProblem(t, "ncf").WithBackend(faults.Backend{Inner: cost.Analytical{}, Inj: inj}), cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		peak := watch(e, nil, 0)
		if _, err := e.Run(100_000); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("want the injected evaluation error, got %v", err)
		}
		check(t, *peak)
	})
}
