package core

import (
	"digamma/internal/arch"
	"digamma/internal/coopt"
)

// Optimize is the convenience entry point for full HW-Mapping
// co-optimization: DiGamma with default hyper-parameters on the given
// problem and sampling budget.
func Optimize(p *coopt.Problem, budget int, seed int64) (*Result, error) {
	eng, err := NewSeeded(p, DefaultConfig(), seed)
	if err != nil {
		return nil, err
	}
	return eng.Run(budget)
}

// RunGamma runs the GAMMA baseline: mapping-only search on a fixed
// hardware configuration (the paper's Mapping-opt scheme). The problem is
// cloned into Fixed-HW mode internally.
func RunGamma(p *coopt.Problem, hw arch.HW, budget int, seed int64) (*Result, error) {
	fp, err := p.WithFixedHW(hw)
	if err != nil {
		return nil, err
	}
	eng, err := NewSeeded(fp, GammaConfig(), seed)
	if err != nil {
		return nil, err
	}
	return eng.Run(budget)
}
