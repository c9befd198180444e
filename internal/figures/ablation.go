package figures

import (
	"fmt"
	"io"
	"math"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/tables"
	"digamma/internal/workload"
)

// AblationVariant is one DiGamma configuration with a design choice
// removed, used to attribute the search gains of Fig. 5 to individual
// operators (the DESIGN.md ablation study; the paper motivates the
// operators in Fig. 4 without isolating them).
type AblationVariant struct {
	Name   string
	Config core.Config
}

// AblationVariants returns the studied variants: full DiGamma first (the
// normalization reference), then one variant per removed design choice.
func AblationVariants() []AblationVariant {
	full := core.DefaultConfig()

	noDivisor := full
	noDivisor.DivisorBias = 0

	noGreedy := full
	noGreedy.GreedyCross = 0

	noSeeds := full
	noSeeds.SeedFrac = 0

	noReorder := full
	noReorder.ReorderRate = 0

	noHW := full
	noHW.MutHWRate = 0
	noHW.GrowRate = 0
	noHW.AgeRate = 0

	noCluster := full
	noCluster.GrowRate = 0
	noCluster.AgeRate = 0

	return []AblationVariant{
		{"DiGamma", full},
		{"-divisor-tiles", noDivisor},
		{"-greedy-cross", noGreedy},
		{"-seeding", noSeeds},
		{"-reorder", noReorder},
		{"-mutate-HW", noHW},
		{"-grow/age", noCluster},
	}
}

// Ablation runs every variant on every model at the given budget and
// returns latency normalized to full DiGamma (values > 1 mean the removed
// choice was contributing).
func Ablation(platform arch.Platform, o Options) (*tables.Table, error) {
	o = o.withDefaults()
	variants := AblationVariants()
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.Name
	}
	tb := tables.NewTable(
		fmt.Sprintf("Ablation (%s): latency, normalized to full DiGamma (higher = operator mattered)", platform.Name),
		cols...)

	// One parallel cell per model × variant; every cell owns its problem,
	// RNG and output slot, so the table is identical at any worker count.
	type cell struct {
		cycles float64
		log    string
	}
	cells := make([]cell, len(o.Models)*len(variants))
	engWorkers := engineWorkers(o.Workers, len(cells))
	err := parallelFor(len(cells), o.Workers, func(ci int) error {
		mi, vi := ci/len(variants), ci%len(variants)
		modelName, v := o.Models[mi], variants[vi]
		model, err := workload.ByName(modelName)
		if err != nil {
			return err
		}
		p, err := o.newProblem(model, platform, coopt.Latency)
		if err != nil {
			return err
		}
		eng, err := core.NewSeeded(p, o.coreConfig(v.Config, engWorkers), o.Seed)
		if err != nil {
			return err
		}
		r, err := eng.Run(o.Budget)
		if err != nil {
			return err
		}
		if r.Best == nil || !r.Best.Valid {
			cells[ci].cycles = math.NaN()
			return nil
		}
		cells[ci].cycles = r.Best.Cycles
		cells[ci].log = fmt.Sprintf("ablation %s/%s/%s: %.3e cycles\n",
			platform.Name, modelName, v.Name, r.Best.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi, modelName := range o.Models {
		row := make([]float64, len(variants))
		for vi := range variants {
			c := cells[mi*len(variants)+vi]
			row[vi] = c.cycles
			io.WriteString(o.Log, c.log)
		}
		tb.SetRow(modelName, row)
	}
	if err := tb.NormalizeBy("DiGamma"); err != nil {
		return nil, err
	}
	tb.AddGeoMeanRow()
	o.logShared("ablation")
	return tb, nil
}
