// Package space defines the paper's design-point encoding (Fig. 3): a
// genome holding the shared HW genes (per-level fanouts π) and one mapping
// gene block per unique layer (spatial dim P, loop order, tile sizes per
// level). Buffer sizes are deliberately absent — the co-opt framework
// derives them from the minimum buffer requirement (the paper's buffer
// allocation strategy).
//
// The package also provides the continuous [0,1]^n codec that lets generic
// numeric optimizers (CMA, DE, PSO, …) explore the same space: loop orders
// via random keys, tiles and fanouts via log-scaled quantization.
package space

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// Genome is one encoded design point: the HW genes plus per-layer mapping
// genes. All mappings have len(Fanouts) levels.
type Genome struct {
	Fanouts []int             // π per hierarchy level, inner-first
	Maps    []mapping.Mapping // one per unique layer, aligned with Space.Layers
}

// Clone returns a deep copy.
func (g Genome) Clone() Genome {
	out := Genome{Fanouts: append([]int(nil), g.Fanouts...)}
	out.Maps = make([]mapping.Mapping, len(g.Maps))
	for i, m := range g.Maps {
		out.Maps[i] = m.Clone()
	}
	return out
}

// Levels returns the clustering depth of the genome.
func (g Genome) Levels() int { return len(g.Fanouts) }

// NumPEs returns the total PE count implied by the HW genes.
func (g Genome) NumPEs() int {
	n := 1
	for _, f := range g.Fanouts {
		n *= f
	}
	return n
}

// String renders the genome in the paper's Fig. 7 gene-table style.
func (g Genome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HW π=%v (PEs=%d)\n", g.Fanouts, g.NumPEs())
	for i, m := range g.Maps {
		fmt.Fprintf(&b, "  layer %d: %s\n", i, m)
	}
	return b.String()
}

// Space describes the searchable design space for one co-optimization
// problem: the unique layers of the target model, the clustering depth
// used by the continuous codec, and per-level fanout caps. When FixedHW is
// non-nil the HW genes are frozen to its fanouts (the paper's Fixed-HW
// use-case) and removed from the continuous vector.
type Space struct {
	Layers    []workload.Layer
	Levels    int // clustering depth for the continuous codec (1 to cost.MaxLevels)
	MaxFanout int // upper bound for each π gene
	FixedHW   *arch.HW
}

// New builds a Space for a model on a platform: unique layers, a 2-level
// hierarchy (the paper's canonical encoding), and a fanout cap derived
// from the area budget (no single level can hold more PEs than the budget
// affords).
func New(model workload.Model, platform arch.Platform) Space {
	return Space{
		Layers:    model.UniqueLayers(),
		Levels:    2,
		MaxFanout: platform.Area.MaxPEs(platform.AreaBudgetMM2),
	}
}

// WithFixedHW returns a copy of s with the HW genes frozen to hw.
func (s Space) WithFixedHW(hw arch.HW) Space {
	s.FixedHW = &hw
	s.Levels = hw.Levels()
	return s
}

// Validate checks the space is well-formed.
func (s Space) Validate() error {
	if len(s.Layers) == 0 {
		return errors.New("space: no layers")
	}
	if s.Levels < 1 {
		return fmt.Errorf("space: %d levels", s.Levels)
	}
	if err := cost.CheckDepth(s.Levels); err != nil {
		return err
	}
	if s.MaxFanout < 1 && s.FixedHW == nil {
		return fmt.Errorf("space: MaxFanout = %d", s.MaxFanout)
	}
	return nil
}

// genesPerLevel is the per-level mapping gene count in the continuous
// codec: 1 spatial + 6 order keys + 6 tile values.
const genesPerLevel = 1 + int(workload.NumDims) + int(workload.NumDims)

// Dim returns the continuous vector length: one fanout gene per level
// (unless HW is fixed) plus the per-layer mapping genes.
func (s Space) Dim() int {
	d := len(s.Layers) * s.Levels * genesPerLevel
	if s.FixedHW == nil {
		d += s.Levels
	}
	return d
}

// logScale maps u∈[0,1] onto an integer in [1, max] with logarithmic
// resolution, so that small tiles/fanouts (where latency is most
// sensitive) get fine granularity.
func logScale(u float64, max int) int {
	if max <= 1 {
		return 1
	}
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	v := math.Exp(u * math.Log(float64(max)+0.5))
	n := int(v)
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// Decode converts a continuous vector into a legal genome. Vectors of the
// wrong length are an error; all other values decode to something valid
// (mappings are repaired), which keeps generic optimizers from wasting
// samples on structurally broken points.
func (s Space) Decode(x []float64) (Genome, error) {
	if len(x) != s.Dim() {
		return Genome{}, fmt.Errorf("space: vector length %d, want %d", len(x), s.Dim())
	}
	var g Genome
	i := 0
	if s.FixedHW != nil {
		g.Fanouts = append([]int(nil), s.FixedHW.Fanouts...)
	} else {
		g.Fanouts = make([]int, s.Levels)
		for l := 0; l < s.Levels; l++ {
			g.Fanouts[l] = logScale(x[i], s.MaxFanout)
			i++
		}
	}
	g.Maps = make([]mapping.Mapping, len(s.Layers))
	for li, layer := range s.Layers {
		m := mapping.Mapping{Levels: make([]mapping.Level, s.Levels)}
		for l := 0; l < s.Levels; l++ {
			lv := &m.Levels[l]
			sp := int(x[i] * float64(workload.NumDims))
			if sp >= int(workload.NumDims) {
				sp = int(workload.NumDims) - 1
			}
			if sp < 0 {
				sp = 0
			}
			lv.Spatial = workload.Dim(sp)
			i++
			var keys [workload.NumDims]float64
			for d := 0; d < int(workload.NumDims); d++ {
				keys[d] = x[i]
				i++
			}
			lv.Order = mapping.OrderFromKeys(keys)
			for _, d := range workload.AllDims {
				lv.Tiles[d] = logScale(x[i], layer.Dim(d))
				i++
			}
		}
		m.RepairInPlace(layer) // m is freshly built and owned
		g.Maps[li] = m
	}
	return g, nil
}

// Random generates a random genome directly (used to seed the genetic
// engines); levels may exceed the codec depth when DiGamma has grown the
// hierarchy.
func (s Space) Random(rng *rand.Rand, levels int) Genome {
	if levels < 1 {
		levels = s.Levels
	}
	var g Genome
	g.Fanouts = make([]int, levels)
	if s.FixedHW != nil && len(s.FixedHW.Fanouts) == levels {
		copy(g.Fanouts, s.FixedHW.Fanouts)
	} else {
		for l := range g.Fanouts {
			g.Fanouts[l] = 1 + rng.Intn(max(1, s.MaxFanout))
		}
	}
	g.Maps = make([]mapping.Mapping, len(s.Layers))
	for li, layer := range s.Layers {
		g.Maps[li] = mapping.Random(rng, layer, levels)
	}
	return g
}

// CheckCanonical reports why g is not exactly what Repair would return
// for it, or nil when it is: the engine only ever holds canonical genomes,
// so a decoded genome (a checkpoint, a migrant off the wire) that fails
// here is malformed. It checks the shape first — one mapping per layer,
// each as deep as the fanout vector — so a short or ragged genome is an
// error rather than an index panic, then the fanout bounds (or the fixed
// hardware) and every mapping's legality.
func (s Space) CheckCanonical(g Genome) error {
	if len(g.Fanouts) == 0 {
		return errors.New("space: genome has no hierarchy levels")
	}
	if len(g.Maps) != len(s.Layers) {
		return fmt.Errorf("space: genome maps %d layers, the model has %d", len(g.Maps), len(s.Layers))
	}
	if s.FixedHW != nil {
		if !slices.Equal(g.Fanouts, s.FixedHW.Fanouts) {
			return fmt.Errorf("space: fanouts %v differ from the fixed hardware's %v", g.Fanouts, s.FixedHW.Fanouts)
		}
	} else {
		for l, f := range g.Fanouts {
			if f < 1 || (s.MaxFanout > 0 && f > s.MaxFanout) {
				return fmt.Errorf("space: level %d fanout %d out of [1,%d]", l, f, s.MaxFanout)
			}
		}
	}
	for li, layer := range s.Layers {
		m := g.Maps[li]
		if len(m.Levels) != len(g.Fanouts) {
			return fmt.Errorf("space: layer %d mapping has %d levels, the fanouts %d", li, len(m.Levels), len(g.Fanouts))
		}
		if err := m.Validate(layer); err != nil {
			return fmt.Errorf("space: layer %d: %w", li, err)
		}
	}
	return nil
}

// Repair returns a genome with every mapping made legal for its layer and
// fanouts clamped to [1, MaxFanout]. Already-canonical genomes — the common
// case on the search hot path, where the engine has repaired every child it
// breeds before evaluation — are returned as-is without cloning; otherwise
// only the offending gene blocks are copied. The result may therefore share
// per-layer blocks with g, so callers must not mutate g afterwards.
func (s Space) Repair(g Genome) Genome {
	out := g

	// HW genes: frozen in Fixed-HW mode, clamped to [1, MaxFanout] otherwise.
	if s.FixedHW != nil {
		if !slices.Equal(g.Fanouts, s.FixedHW.Fanouts) {
			out.Fanouts = append([]int(nil), s.FixedHW.Fanouts...)
		}
	} else {
		limit := s.MaxFanout
		for l, f := range g.Fanouts {
			if f >= 1 && (limit <= 0 || f <= limit) {
				continue
			}
			out.Fanouts = append([]int(nil), g.Fanouts...)
			for i := l; i < len(out.Fanouts); i++ {
				out.Fanouts[i] = max(out.Fanouts[i], 1)
				if limit > 0 {
					out.Fanouts[i] = min(out.Fanouts[i], limit)
				}
			}
			break
		}
	}

	// Mapping genes: copy-on-write — a layer block already legal at the
	// right clustering depth is shared, everything else is cloned and fixed.
	shared := true
	for li, layer := range s.Layers {
		m := out.Maps[li]
		if len(m.Levels) == len(out.Fanouts) && m.Validate(layer) == nil {
			continue
		}
		if shared {
			out.Maps = append([]mapping.Mapping(nil), g.Maps...)
			shared = false
		}
		// Align mapping depth with the HW genes.
		if len(m.Levels) != len(out.Fanouts) {
			m = m.Clone()
			for len(m.Levels) < len(out.Fanouts) {
				top := m.Levels[len(m.Levels)-1]
				top.Tiles = layer.Dims()
				m.Levels = append(m.Levels, top)
			}
			if len(m.Levels) > len(out.Fanouts) {
				m.Levels = m.Levels[:len(out.Fanouts)]
			}
		}
		out.Maps[li] = m.Repair(layer)
	}
	return out
}
