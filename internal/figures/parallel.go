package figures

import (
	"fmt"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/par"
	"digamma/internal/workload"
)

// newProblem assembles one cell's co-opt problem at the experiment's
// fidelity tier (empty = the default analytical model), attached to the
// experiment-wide shared analysis tier so cells revisiting the same
// layers — one model across algorithms and seeds — reuse per-layer
// analyses instead of recomputing them. Sharing never changes a table
// cell; it only removes redundant cost-model work.
func (o Options) newProblem(model workload.Model, platform arch.Platform, objective coopt.Objective) (*coopt.Problem, error) {
	p, err := coopt.NewProblem(model, platform, objective)
	if err != nil {
		return nil, err
	}
	p, err = p.WithFidelity(o.Fidelity)
	if err != nil {
		return nil, err
	}
	if o.Shared != nil {
		p = p.WithShared(o.Shared)
	}
	return p, nil
}

// logShared appends the run's aggregate analysis-reuse line to the
// experiment log: cumulative shared-tier totals across every cell that
// ran against o.Shared so far.
func (o Options) logShared(figure string) {
	if o.Shared == nil {
		return
	}
	st := o.Shared.Stats()
	fmt.Fprintf(o.Log, "%s shared analysis: %d hits / %d misses (%.0f%% reuse), %d entries\n",
		figure, st.Hits, st.Misses, 100*st.HitRate(), st.Entries)
}

// parallelFor runs fn(0..n-1) across up to workers goroutines (≤ 1 =
// serial) and returns the first error in index order. Every cell owns its
// output slot, so callers get deterministic results regardless of the
// worker count; only wall-clock changes.
func parallelFor(n, workers int, fn func(i int) error) error {
	return par.For(n, workers, fn)
}

// engineWorkers picks the per-engine evaluation parallelism for a figure
// run: when the figure already fans its cells out (cells > 1 under a
// parallel Options.Workers), each engine runs serially so the cell-level
// parallelism owns the cores; a single cell inherits the full worker
// budget.
func engineWorkers(figureWorkers, cells int) int {
	if figureWorkers > 1 && cells > 1 {
		return 1
	}
	return figureWorkers
}

// coreConfig threads the experiment's engine knobs — evaluation workers,
// bound pruning, and the island configuration — into one cell's base
// engine configuration.
func (o Options) coreConfig(base core.Config, workers int) core.Config {
	base.Workers = workers
	base.Prune = o.Prune
	base.Islands = o.Islands
	base.MigrateEvery = o.MigrateEvery
	base.Profiles = o.IslandProfiles
	return base
}

// runDiGamma runs the DiGamma engine with default hyper-parameters at an
// explicit evaluation-worker count (seed-deterministic like core.Optimize),
// under the experiment's prune and island knobs.
func runDiGamma(p *coopt.Problem, budget int, seed int64, workers int, o Options) (*core.Result, error) {
	eng, err := core.NewSeeded(p, o.coreConfig(core.DefaultConfig(), workers), seed)
	if err != nil {
		return nil, err
	}
	return eng.Run(budget)
}

// runGamma is core.RunGamma with an explicit evaluation-worker count and
// the experiment's prune and island knobs.
func runGamma(p *coopt.Problem, hw arch.HW, budget int, seed int64, workers int, o Options) (*core.Result, error) {
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewSeeded(fp, o.coreConfig(core.GammaConfig(), workers), seed)
	if err != nil {
		return nil, err
	}
	return eng.Run(budget)
}
