package digamma

import (
	"context"
	"io"
	"os"

	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/report"
	"digamma/internal/workload"
)

// ParseModelCSV reads a custom model in the GAMMA-style CSV layer format:
//
//	name,type,K,C,Y,X,R,S,strideY,strideX,count
//
// with type ∈ {CONV, DSCONV, GEMM}. See internal/workload for details.
func ParseModelCSV(name string, r io.Reader) (Model, error) {
	return workload.ParseCSV(name, r)
}

// LoadModelCSVFile reads a custom model from a CSV file; the model is
// named after the path.
func LoadModelCSVFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return Model{}, err
	}
	defer f.Close()
	return workload.ParseCSV(path, f)
}

// WriteModelCSV renders a model in the CSV layer format.
func WriteModelCSV(w io.Writer, m Model) error { return workload.WriteCSV(w, m) }

// OptimizeMulti co-optimizes one accelerator for a *set* of models (the
// paper's "takes in any DNN model(s)"): the hardware is shared, per-layer
// mappings are searched for every model, and the fitness is the weighted
// sum across models (nil weights = equal).
func OptimizeMulti(models []Model, weights []float64, platform Platform, o Options) (*Evaluation, error) {
	return OptimizeMultiContext(context.Background(), models, weights, platform, o)
}

// OptimizeMultiContext is OptimizeMulti with cooperative cancellation and
// progress reporting, with the same guarantees as OptimizeContext.
func OptimizeMultiContext(ctx context.Context, models []Model, weights []float64, platform Platform, o Options) (*Evaluation, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	p, err := coopt.NewMultiProblem(models, weights, platform, o.Objective)
	if err != nil {
		return nil, err
	}
	if p, err = o.applyFidelity(p); err != nil {
		return nil, err
	}
	if o.Algorithm == "DiGamma" {
		return o.runEngine(ctx, p, core.DefaultConfig())
	}
	return OptimizeContext(ctx, p.Model, platform, o)
}

// TuneOptions re-exports the hyper-parameter tuning knobs.
type TuneOptions = core.TuneOptions

// Config re-exports DiGamma's hyper-parameter set.
type Config = core.Config

// Tune searches DiGamma's hyper-parameters for a problem with Bayesian
// optimization, reproducing the paper's footnote-3 flow. Expensive:
// Trials × BudgetPerTrial design-point evaluations.
func Tune(model Model, platform Platform, objective Objective, o TuneOptions) (Config, error) {
	p, err := coopt.NewProblem(model, platform, objective)
	if err != nil {
		return Config{}, err
	}
	cfg, _, err := core.Tune(p, o)
	return cfg, err
}

// WriteReport serializes an evaluation as indented JSON for archival or
// external tooling.
func WriteReport(w io.Writer, ev *Evaluation) error {
	return report.FromEvaluation(ev).Write(w)
}

// ParetoFront runs a multi-objective DiGamma search (NSGA-II-style
// non-dominated sorting over the same domain-aware operators) and returns
// the constraint-valid Pareto front, sorted by the first objective.
func ParetoFront(model Model, platform Platform, objectives []Objective, o Options) ([]*Evaluation, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	p, err := coopt.NewProblem(model, platform, objectives[0])
	if err != nil {
		return nil, err
	}
	eng, err := core.NewSeeded(p, core.DefaultConfig(), o.Seed)
	if err != nil {
		return nil, err
	}
	r, err := eng.RunPareto(o.Budget, objectives)
	if err != nil {
		return nil, err
	}
	return r.Front, nil
}
