package core

import (
	"errors"
	"math/rand"

	"digamma/internal/coopt"
	"digamma/internal/opt"
)

// TuneOptions controls hyper-parameter tuning.
type TuneOptions struct {
	Trials         int   // tuning evaluations (full DiGamma runs), default 24
	BudgetPerTrial int   // sampling budget of each inner run, default 1000
	Seed           int64 // RNG seed
}

// Tune searches DiGamma's hyper-parameters with Bayesian optimization —
// the paper's footnote-3 flow. Each trial decodes a hyper-parameter
// vector into a Config, runs a budget-limited DiGamma search on the
// problem, and feeds the achieved fitness back to the GP. The best
// configuration found is returned alongside its achieved fitness.
//
// Tuning is expensive (Trials × BudgetPerTrial evaluations); run it once
// per problem family, not per search.
func Tune(p *coopt.Problem, o TuneOptions) (Config, float64, error) {
	if p == nil {
		return Config{}, 0, errors.New("core: nil problem")
	}
	if o.Trials <= 0 {
		o.Trials = 24
	}
	if o.BudgetPerTrial <= 0 {
		o.BudgetPerTrial = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}

	obj := func(x []float64) float64 {
		cfg := decodeConfig(x)
		eng, err := NewSeeded(p, cfg, o.Seed)
		if err != nil {
			return 1e30
		}
		r, err := eng.Run(o.BudgetPerTrial)
		if err != nil || r.Best == nil {
			return 1e30
		}
		return r.Best.Fitness
	}

	rng := rand.New(rand.NewSource(o.Seed))
	x, f := opt.NewBayes().Minimize(obj, numHyperParams, o.Trials, rng)
	return decodeConfig(x), f, nil
}

// numHyperParams is the dimensionality of the tuning space.
const numHyperParams = 8

// decodeConfig maps a [0,1]^8 vector onto a DiGamma configuration within
// sensible bounds.
func decodeConfig(x []float64) Config {
	at := func(i int) float64 {
		if i < len(x) {
			v := x[i]
			if v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
		return 0.5
	}
	lerp := func(i int, lo, hi float64) float64 { return lo + at(i)*(hi-lo) }
	cfg := DefaultConfig()
	cfg.PopSize = int(lerp(0, 10, 80))
	cfg.EliteFrac = lerp(1, 0.05, 0.30)
	cfg.CrossRate = lerp(2, 0.2, 0.9)
	cfg.ReorderRate = lerp(3, 0.05, 0.6)
	cfg.MutMapRate = lerp(4, 0.3, 1.0)
	cfg.MutHWRate = lerp(5, 0.05, 0.6)
	cfg.GrowRate = lerp(6, 0.0, 0.15)
	cfg.AgeRate = cfg.GrowRate
	cfg.DivisorBias = lerp(7, 0.4, 1.0)
	return cfg
}
