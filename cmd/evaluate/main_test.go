package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"digamma/internal/cost"
)

// TestLayerEnergiesSumToTotal: on every fidelity tier, the per-layer
// energies the report prints, times each layer's multiplicity, sum to the
// printed total — the re-analysis is priced with the tier's effective
// energy constants, as the total is. Each layer's re-analysis also scores
// exactly as the evaluation did.
func TestLayerEnergiesSumToTotal(t *testing.T) {
	for _, tier := range cost.BackendNames {
		t.Run(tier, func(t *testing.T) {
			r, err := evaluate("ncf", "", "16x8", 2048, 131072, "dla-like", "edge", 1, tier)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for li, le := range r.eval.Layers {
				sum += r.layers[li].EnergyPJ(r.energy) * float64(le.Layer.Multiplicity())
				if got := r.layers[li].Score(); got.Cycles != le.Score.Cycles || got.EnergyPJ(r.energy) != le.Score.EnergyPJ(r.energy) {
					t.Errorf("layer %s: re-analysis scores %g cycles, %g pJ; the evaluation %g, %g",
						le.Layer.Name, got.Cycles, got.EnergyPJ(r.energy), le.Score.Cycles, le.Score.EnergyPJ(r.energy))
				}
			}
			if total := r.eval.EnergyPJ; math.Abs(sum-total) > 1e-9*math.Abs(total) {
				t.Errorf("per-layer energies × multiplicity sum to %.6e pJ, the total is %.6e (ratio %.4f)", sum, total, sum/total)
			}
			var out bytes.Buffer
			if err := run(&out, "ncf", "", "16x8", 2048, 131072, "dla-like", "edge", 1, tier); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(out.String(), "--- "); n != len(r.eval.Layers) {
				t.Errorf("report shows %d layers, want %d", n, len(r.eval.Layers))
			}
		})
	}
}
