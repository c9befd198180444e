package cost

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/mapping"
)

// TestScoreMatchesResult: a Score is the analysis's own floats, so on
// every fidelity tier, for conv, depthwise and GEMM layers at 1 to 3
// levels, each of its fields bit-equals the Result's — each buffer entry
// the level's BufferWords.Total() — and so does its energy under the
// platform's and the tier's energy constants. ScoreTrusted, the search's
// path on the analytical model, scores exactly what AnalyzeTrusted does.
func TestScoreMatchesResult(t *testing.T) {
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(29))
	for _, name := range BackendNames {
		be, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range boundTestLayers() {
			a := NewAnalyzer(layer)
			for levels := 1; levels <= 3; levels++ {
				for trial := 0; trial < 8; trial++ {
					hw := arch.HW{Fanouts: make([]int, levels), BufBytes: make([]int64, levels)}
					for l := range hw.Fanouts {
						hw.Fanouts[l] = 1 << rng.Intn(5)
						hw.BufBytes[l] = 1 << 20
					}
					hw = be.PrepareHW(hw.Defaults())
					m := mapping.Random(rng, layer, levels)
					m.RepairInPlace(layer)
					r, err := be.Analyze(&a, hw, m)
					if err != nil {
						t.Fatalf("%s %s %d levels: %v", name, layer.Name, levels, err)
					}
					s := r.Score()
					pairs := [][2]float64{
						{s.Cycles, r.Cycles}, {s.MappedMACs, r.MappedMACs}, {s.DRAMWords, r.DRAMWords},
						{s.NoCWords, r.NoCWords}, {s.L1Words, r.L1Words}, {s.L2Words, r.L2Words},
						{s.Utilization, r.Utilization},
					}
					for l := range r.Levels {
						pairs = append(pairs, [2]float64{s.Buffer[l], r.Levels[l].BufferWords.Total()})
					}
					for _, em := range []arch.EnergyModel{arch.Edge().Energy, be.EffectiveEnergy(arch.Cloud().Energy)} {
						pairs = append(pairs, [2]float64{s.EnergyPJ(em), r.EnergyPJ(em)})
					}
					for i, p := range pairs {
						if bits(p[0]) != bits(p[1]) {
							t.Fatalf("%s %s %d levels: score field %d = %v, result %v", name, layer.Name, levels, i, p[0], p[1])
						}
					}
					if _, ok := be.(Analytical); ok {
						if st, err := a.ScoreTrusted(hw, m); err != nil || st != s {
							t.Fatalf("%s %d levels: ScoreTrusted = %+v (%v), AnalyzeTrusted scores %+v", layer.Name, levels, st, err, s)
						}
					}
					if s.Levels != len(r.Levels) || s.Key != 0 {
						t.Fatalf("%s %s: score holds %d levels (key %d), result %d", name, layer.Name, s.Levels, s.Key, len(r.Levels))
					}
					for l := s.Levels; l < MaxLevels; l++ {
						if s.Buffer[l] != 0 {
							t.Fatalf("%s %s: buffer entry %d past the %d levels is %v", name, layer.Name, l, s.Levels, s.Buffer[l])
						}
					}
				}
			}
		}
	}
}

// TestScoreRefusesDeepResult: a result deeper than a score holds is never
// cut short; Score panics with the typed depth error.
func TestScoreRefusesDeepResult(t *testing.T) {
	defer func() {
		var de *DepthError
		if err, _ := recover().(error); !errors.As(err, &de) || de.Levels != MaxLevels+1 {
			t.Fatalf("Score of a %d-level result recovered %v, want a *DepthError", MaxLevels+1, err)
		}
	}()
	r := &Result{Levels: make([]LevelStats, MaxLevels+1)}
	r.Score()
}
