package figures

import (
	"fmt"
	"math"
	"math/rand"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/opt"
	"digamma/internal/tables"
	"digamma/internal/workload"
)

// Convergence traces best-fitness-so-far against samples spent for every
// algorithm on one model × platform — the sample-efficiency view behind
// the paper's Sec. II-C argument that a naive two-loop search cannot
// converge within practical budgets. Rows are sample checkpoints, columns
// algorithms; cells hold the best valid latency found by that point (N/A
// until the first valid design).
func Convergence(platform arch.Platform, modelName string, checkpoints int, o Options) (*tables.Table, error) {
	o = o.withDefaults()
	if checkpoints < 2 {
		checkpoints = 10
	}
	model, err := workload.ByName(modelName)
	if err != nil {
		return nil, err
	}
	algs := AlgorithmNames()
	tb := tables.NewTable(
		fmt.Sprintf("Convergence on %s/%s: best latency (cycles) vs samples", modelName, platform.Name),
		algs...)

	marks := make([]int, checkpoints)
	for i := range marks {
		marks[i] = (i + 1) * o.Budget / checkpoints
	}

	// One parallel cell per algorithm; each trace owns its curve slice.
	curves := make([][]float64, len(algs))
	err = parallelFor(len(algs), o.Workers, func(ai int) error {
		p, err := o.newProblem(model, platform, coopt.Latency)
		if err != nil {
			return err
		}
		curve, err := traceAlgorithm(algs[ai], p, o.Seed+int64(ai), marks,
			engineWorkers(o.Workers, len(algs)), o)
		if err != nil {
			return err
		}
		curves[ai] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	series := make(map[string][]float64, len(algs))
	for ai, alg := range algs {
		series[alg] = curves[ai]
	}
	for mi, mark := range marks {
		row := make([]float64, len(algs))
		for ai, alg := range algs {
			row[ai] = series[alg][mi]
		}
		tb.SetRow(fmt.Sprintf("%d samples", mark), row)
	}
	o.logShared("convergence")
	return tb, nil
}

// traceAlgorithm runs one algorithm while recording the best *valid*
// latency after each checkpoint's worth of samples. The experiment's
// engine knobs (pruning, islands) apply to the DiGamma trace, so the
// convergence protocol can put islands=1 and islands=K side by side at
// equal budget.
func traceAlgorithm(alg string, p *coopt.Problem, seed int64, marks []int, workers int, o Options) ([]float64, error) {
	budget := o.Budget
	curve := make([]float64, len(marks))
	for i := range curve {
		curve[i] = math.NaN()
	}

	if alg == "DiGamma" {
		eng, err := core.NewSeeded(p, o.coreConfig(core.DefaultConfig(), workers), seed)
		if err != nil {
			return nil, err
		}
		eng.OnEvaluation = func(sample int, ev *coopt.Evaluation) {
			if !ev.Valid {
				return
			}
			for mi, mark := range marks {
				if sample <= mark && (math.IsNaN(curve[mi]) || ev.Cycles < curve[mi]) {
					curve[mi] = ev.Cycles
				}
			}
		}
		if _, err := eng.Run(budget); err != nil {
			return nil, err
		}
		propagateMins(curve)
		return curve, nil
	}

	vec, err := opt.ByName(alg)
	if err != nil {
		return nil, err
	}
	samples := 0
	obj := p.VectorObjective()
	wrapped := func(x []float64) float64 {
		f := obj(x)
		samples++
		if f < invalidThreshold {
			for mi, mark := range marks {
				if samples <= mark && (math.IsNaN(curve[mi]) || f < curve[mi]) {
					curve[mi] = f
				}
			}
		}
		return f
	}
	vec.Minimize(wrapped, p.Space.Dim(), budget, rand.New(rand.NewSource(seed)))
	propagateMins(curve)
	return curve, nil
}

// invalidThreshold separates real latencies from constraint penalties
// (coopt's penalty floor is 1e18).
const invalidThreshold = 1e17

// propagateMins makes the curve monotone: each checkpoint holds the best
// value seen up to that point.
func propagateMins(curve []float64) {
	best := math.NaN()
	for i := range curve {
		if !math.IsNaN(curve[i]) && (math.IsNaN(best) || curve[i] < best) {
			best = curve[i]
		}
		curve[i] = best
	}
}
