// Package report serializes scored design points to JSON so found
// accelerator configurations can be archived, diffed and consumed by
// external tooling (RTL generators, plotting scripts).
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// Report is the JSON shape of one evaluation.
type Report struct {
	Valid    bool     `json:"valid"`
	Overflow float64  `json:"overflow,omitempty"`
	Hardware Hardware `json:"hardware"`
	Metrics  Metrics  `json:"metrics"`
	Layers   []Layer  `json:"layers"`
}

// Hardware describes the accelerator configuration.
type Hardware struct {
	Fanouts     []int   `json:"fanouts"` // inner-first
	NumPEs      int     `json:"num_pes"`
	BufBytes    []int64 `json:"buf_bytes"` // per-instance, inner-first
	AreaMM2     float64 `json:"area_mm2"`
	PEAreaMM2   float64 `json:"pe_area_mm2"`
	BufAreaMM2  float64 `json:"buf_area_mm2"`
	PEAreaShare int     `json:"pe_area_pct"`
}

// Metrics aggregates the model-level results.
type Metrics struct {
	Cycles         float64 `json:"cycles"`
	EnergyPJ       float64 `json:"energy_pj"`
	LatAreaProduct float64 `json:"latency_area_product"`
	Fitness        float64 `json:"fitness"`
}

// Layer is the per-unique-layer detail.
type Layer struct {
	Name        string  `json:"name"`
	Type        string  `json:"type"`
	Count       int     `json:"count"`
	Cycles      float64 `json:"cycles"`
	Utilization float64 `json:"utilization"`
	DRAMWords   float64 `json:"dram_words"`
	Mapping     []Level `json:"mapping"` // inner-first
}

// Level is one mapping level in gene form.
type Level struct {
	Spatial string         `json:"spatial"`
	Order   []string       `json:"order"` // outermost first
	Tiles   map[string]int `json:"tiles"`
}

// FromEvaluation converts a scored design point into its report form.
func FromEvaluation(ev *coopt.Evaluation) *Report {
	r := &Report{
		Valid:    ev.Valid,
		Overflow: ev.Overflow,
		Hardware: Hardware{
			Fanouts:    append([]int(nil), ev.HW.Fanouts...),
			NumPEs:     ev.HW.NumPEs(),
			BufBytes:   append([]int64(nil), ev.HW.BufBytes...),
			AreaMM2:    ev.Area.Total(),
			PEAreaMM2:  ev.Area.PEs,
			BufAreaMM2: ev.Area.Buffers,
		},
		Metrics: Metrics{
			Cycles:         ev.Cycles,
			EnergyPJ:       ev.EnergyPJ,
			LatAreaProduct: ev.LatAreaProd,
			Fitness:        ev.Fitness,
		},
	}
	r.Hardware.PEAreaShare, _ = ev.Area.Ratio()
	for li, le := range ev.Layers {
		layer := Layer{
			Name:        le.Layer.Name,
			Type:        le.Layer.Type.String(),
			Count:       le.Layer.Multiplicity(),
			Cycles:      le.Score.Cycles,
			Utilization: le.Score.Utilization,
			DRAMWords:   le.Score.DRAMWords,
		}
		for _, lv := range ev.Genome.Maps[li].Levels {
			level := Level{
				Spatial: lv.Spatial.String(),
				Tiles:   map[string]int{},
			}
			for _, d := range lv.Order {
				level.Order = append(level.Order, d.String())
			}
			for _, d := range workload.AllDims {
				level.Tiles[d.String()] = lv.Tiles[d]
			}
			layer.Mapping = append(layer.Mapping, level)
		}
		r.Layers = append(r.Layers, layer)
	}
	return r
}

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// Read parses a report previously produced by Write.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &r, nil
}
