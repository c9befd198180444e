package core

import (
	"errors"
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/cost"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// TestDeepHierarchyRefused: a hierarchy deeper than a cost.Score holds is
// refused with one typed error wherever it enters — the engine's
// clustering ceiling, the space's depth, a fixed HW given to WithFixedHW
// or to EvaluateMapping — before anything is scored, while the deepest
// hierarchy a score holds is accepted and scored whole.
func TestDeepHierarchyRefused(t *testing.T) {
	model, err := workload.ByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	hwOf := func(levels int) arch.HW {
		hw := arch.HW{Fanouts: make([]int, levels), BufBytes: make([]int64, levels)}
		for l := range hw.Fanouts {
			hw.Fanouts[l], hw.BufBytes[l] = 2, 1<<20
		}
		return hw
	}
	evaluateMapping := func(levels int) error {
		rng := rand.New(rand.NewSource(1))
		maps := make([]mapping.Mapping, len(p.Space.Layers))
		for i, layer := range p.Space.Layers {
			maps[i] = mapping.Random(rng, layer, levels)
			maps[i].RepairInPlace(layer)
		}
		ev, err := coopt.EvaluateMapping(p.Space.Layers, hwOf(levels), maps, p.Platform, coopt.Latency)
		if err == nil && ev.Layers[0].Score.Levels != levels {
			t.Errorf("a %d-level evaluation scored %d levels", levels, ev.Layers[0].Score.Levels)
		}
		return err
	}
	entries := []struct {
		name string
		try  func(levels int) error
	}{
		{"core.Config.MaxLevels", func(levels int) error {
			cfg := DefaultConfig()
			cfg.MaxLevels = levels
			_, err := NewSeeded(p, cfg, 1)
			return err
		}},
		{"space.Space.Levels", func(levels int) error {
			s := p.Space
			s.Levels = levels
			return s.Validate()
		}},
		{"engine over a deep space", func(levels int) error {
			q := *p
			q.Space.Levels = levels
			_, err := NewSeeded(&q, DefaultConfig(), 1)
			return err
		}},
		{"coopt.Problem.WithFixedHW", func(levels int) error {
			_, err := p.WithFixedHW(hwOf(levels))
			return err
		}},
		{"coopt.EvaluateMapping", evaluateMapping},
	}
	for _, e := range entries {
		if err := e.try(cost.MaxLevels); err != nil {
			t.Errorf("%s: %d levels refused: %v", e.name, cost.MaxLevels, err)
		}
		err := e.try(cost.MaxLevels + 1)
		var de *cost.DepthError
		if !errors.As(err, &de) || de.Levels != cost.MaxLevels+1 {
			t.Errorf("%s: %d levels gave %v, want a *cost.DepthError", e.name, cost.MaxLevels+1, err)
		}
	}
}
