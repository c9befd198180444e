package cost

import (
	"fmt"

	"digamma/internal/arch"
)

// MaxLevels is the deepest hierarchy a Score holds. DiGamma's clustering
// ceiling (paper: 3) stays below it; deeper hierarchies are refused where
// they enter a search or an evaluation (CheckDepth), so no score is ever
// cut short.
const MaxLevels = 4

// DepthError refuses a hierarchy deeper than MaxLevels.
type DepthError struct {
	Levels int
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("cost: a %d-level hierarchy is deeper than the %d levels a score holds", e.Levels, MaxLevels)
}

// CheckDepth returns a *DepthError when a hierarchy of the given depth
// could not be scored.
func CheckDepth(levels int) error {
	if levels > MaxLevels {
		return &DepthError{Levels: levels}
	}
	return nil
}

// Score is what a search keeps of one layer analysis: the floats its
// fitness, energy and reports read, and each level's buffer requirement,
// which the co-opt framework maximizes across layers to size the buffers
// (the paper's Fig. 3(f)). It is fixed-size and pointer-free, so both
// analysis caches hold it by value and the collector never scans it. The
// full Result, with every level's trip counts and traffic, is rebuilt only
// where a caller asks for it: one re-analysis of one design.
type Score struct {
	Cycles      float64
	MappedMACs  float64
	DRAMWords   float64
	NoCWords    float64
	L1Words     float64
	L2Words     float64
	Utilization float64

	// Levels is the hierarchy depth: Buffer holds that many entries.
	Levels int
	// Buffer holds each level's single-copy buffer requirement in words
	// (BufferWords.Total()), inner-first.
	Buffer [MaxLevels]float64

	// Key is the evaluation-cache key the score is published under: the
	// low word of its evalstore content key (zero for scores that never
	// enter a cache). Not an analysis output: the intrusive cache reads
	// the key off the value.
	Key uint64
}

// Score copies what a search keeps of the analysis. It panics with a
// *DepthError past MaxLevels levels, which the entry points refuse
// before any analysis runs.
func (r *Result) Score() Score {
	if err := CheckDepth(len(r.Levels)); err != nil {
		panic(err)
	}
	s := Score{
		Cycles:      r.Cycles,
		MappedMACs:  r.MappedMACs,
		DRAMWords:   r.DRAMWords,
		NoCWords:    r.NoCWords,
		L1Words:     r.L1Words,
		L2Words:     r.L2Words,
		Utilization: r.Utilization,
		Levels:      len(r.Levels),
	}
	for l := range r.Levels {
		s.Buffer[l] = r.Levels[l].BufferWords.Total()
	}
	return s
}

// EnergyPJ converts the movement counters into dynamic energy: the same
// products, summed in the same order, as Result.EnergyPJ.
func (s *Score) EnergyPJ(em arch.EnergyModel) float64 {
	return s.MappedMACs*em.MACpJ +
		s.L1Words*em.L1pJ +
		s.L2Words*em.L2pJ +
		s.NoCWords*em.NoCpJ +
		s.DRAMWords*em.DRAMpJ
}
