package coopt

import (
	"errors"

	"digamma/internal/arch"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// MappingRule derives a deterministic mapping for a layer on a candidate
// hardware configuration. It is how the framework supports the paper's
// second design constraint, Fixed-Mapping: the rule encodes a
// manual-tuned mapping style (e.g. NVDLA-like), and the search explores
// only the HW space. internal/schemes provides rules for the three manual
// styles.
type MappingRule func(hw arch.HW, layer workload.Layer) mapping.Mapping

// WithFixedMapping switches the problem into Fixed-Mapping (HW-only) mode:
// every candidate's mappings are derived from the rule rather than taken
// from the genome, so only the HW genes matter to the fitness. The buffer
// allocation strategy still derives capacities from the rule's tiles.
func (p *Problem) WithFixedMapping(rule MappingRule) (*Problem, error) {
	if rule == nil {
		return nil, errors.New("coopt: nil mapping rule")
	}
	q := *p
	q.MappingRule = rule
	if p.Cache != nil {
		// Rule-derived mappings are hashed like any other genes, but a
		// fresh cache keeps the modes' working sets from evicting each
		// other.
		q.Cache = q.newScoreCache()
	}
	return &q, nil
}

// applyMappingRule replaces the genome's mapping genes with the rule's
// derivations for the given hardware. Because buffer capacities are
// derived (not genes), the rule is probed with the buffer allowance the
// area budget leaves after the PE array — the same 25/75 L1/L2 split the
// grid-search baseline uses — so its tile growth stays inside the budget.
func (p *Problem) applyMappingRule(hw arch.HW, maps []mapping.Mapping) {
	probe := hw
	pes := hw.NumPEs()
	peArea := float64(pes) * p.Platform.Area.PEUm2 / 1e6
	bufArea := p.Platform.AreaBudgetMM2 - peArea
	if bufArea < 0 {
		bufArea = 0
	}
	probe.BufBytes = make([]int64, hw.Levels())
	l1 := int64(bufArea * 0.25 * 1e6 / p.Platform.Area.L1Um2PerByte / float64(pes))
	l2 := int64(bufArea * 0.75 * 1e6 / p.Platform.Area.L2Um2PerByte)
	if l1 < 8 {
		l1 = 8
	}
	if l2 < 64 {
		l2 = 64
	}
	probe.BufBytes[0] = l1
	for i := 1; i < len(probe.BufBytes); i++ {
		probe.BufBytes[i] = l2
	}
	for li, layer := range p.Space.Layers {
		maps[li] = p.MappingRule(probe, layer)
	}
}
