package coopt

import (
	"errors"
	"fmt"
	"strings"

	"digamma/internal/arch"
	"digamma/internal/space"
	"digamma/internal/workload"
)

// NewMultiProblem builds a co-optimization problem over a *set* of models:
// one accelerator (HW configuration) is sized for all of them at once,
// with per-layer mappings searched for every unique layer of every model.
// This is the paper's "takes in any DNN model(s)" framework input. The
// fitness is the weighted sum of the models' objectives; weights default
// to 1 (nil) and can bias the accelerator toward its primary workload.
func NewMultiProblem(models []workload.Model, weights []float64,
	platform arch.Platform, objective Objective) (*Problem, error) {

	if len(models) == 0 {
		return nil, errors.New("coopt: no models")
	}
	if weights != nil && len(weights) != len(models) {
		return nil, fmt.Errorf("coopt: %d weights for %d models", len(weights), len(models))
	}

	// Merge the models into one synthetic workload. Layer multiplicity
	// carries the weighting: Count is scaled per model (weights must be
	// small integers after rounding; fractional weights are applied by
	// scaling all counts by 8 first for resolution).
	var merged workload.Model
	var names []string
	for mi, m := range models {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		names = append(names, m.Name)
		w := 8.0
		if weights != nil {
			w = weights[mi] * 8
		}
		if w < 1 {
			w = 1
		}
		for _, l := range m.UniqueLayers() {
			scaled := l
			scaled.Name = m.Name + "/" + l.Name
			scaled.Count = l.Multiplicity() * int(w)
			merged.Layers = append(merged.Layers, scaled)
		}
	}
	merged.Name = "multi(" + strings.Join(names, "+") + ")"

	p := &Problem{
		Model:     merged,
		Platform:  platform,
		Space:     space.New(merged, platform),
		Objective: objective,
	}
	p.Cache = p.newScoreCache()
	p.initLayers()
	return p, p.Space.Validate()
}
