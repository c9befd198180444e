package digamma

import (
	"bytes"
	"math"
	"testing"

	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/report"
	"digamma/internal/schemes"
)

// End-to-end: co-optimize, serialize the design, read it back, and verify
// the recorded metrics agree with a fresh evaluation of the same genome —
// the full archive/restore loop a downstream user relies on.
func TestEndToEndArchiveRestore(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	best, err := Optimize(model, EdgePlatform(), Options{Budget: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, best); err != nil {
		t.Fatal(err)
	}
	back, err := report.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics.Cycles != best.Cycles {
		t.Errorf("archived cycles %g != %g", back.Metrics.Cycles, best.Cycles)
	}

	// Re-evaluate the genome through the problem: metrics must reproduce.
	p, err := NewProblem(model, EdgePlatform(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Evaluate(best.Genome)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != best.Cycles || again.Valid != best.Valid {
		t.Errorf("re-evaluation drifted: %g/%v vs %g/%v",
			again.Cycles, again.Valid, best.Cycles, best.Valid)
	}
}

// The three search entry points (co-opt, fixed-HW, fixed-mapping) must be
// consistent: fixing DiGamma's own found HW and re-running the mapping
// search cannot be dramatically worse than the co-opt result.
func TestSearchModesConsistent(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	co, err := Optimize(model, EdgePlatform(), Options{Budget: 600, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !co.Valid {
		t.Fatal("co-opt found nothing valid")
	}
	remap, err := OptimizeMapping(model, EdgePlatform(), co.HW, Options{Budget: 600, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !remap.Valid {
		t.Fatal("mapping search on the co-opt HW found nothing valid")
	}
	if remap.Cycles > co.Cycles*1.5 {
		t.Errorf("fixed-HW remap (%g) ≫ co-opt (%g) on the same hardware",
			remap.Cycles, co.Cycles)
	}
}

// Fixed-mapping HW search through the framework must land in the same
// ballpark as the grid-search baseline with the same style.
func TestFixedMappingSearchEndToEnd(t *testing.T) {
	model, err := LoadModel("dlrm")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := schemes.GridSearchHW(schemes.DLALike, model, EdgePlatform(), coopt.Latency)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, EdgePlatform(), Latency)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := p.WithFixedMapping(schemes.Rule(schemes.DLALike))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewSeeded(fp, core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best == nil || !r.Best.Valid {
		t.Fatal("fixed-mapping search found nothing valid")
	}
	// The GA explores a superset of the grid's HW points; allow slack for
	// the small budget but demand the same order of magnitude.
	ratio := r.Best.Cycles / grid.Best.Cycles
	if math.IsNaN(ratio) || ratio > 3 {
		t.Errorf("fixed-mapping GA (%g cycles) far off grid baseline (%g)",
			r.Best.Cycles, grid.Best.Cycles)
	}
}

// Objectives steer outcomes: an energy-optimized design must use no more
// energy than a latency-optimized one (same budget/seed).
func TestObjectiveSteering(t *testing.T) {
	model, err := LoadModel("mobilenetv2")
	if err != nil {
		t.Fatal(err)
	}
	lat, err := Optimize(model, EdgePlatform(), Options{Budget: 800, Seed: 17, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Optimize(model, EdgePlatform(), Options{Budget: 800, Seed: 17, Objective: Energy})
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Valid || !eng.Valid {
		t.Skip("search did not converge at this budget")
	}
	if eng.EnergyPJ > lat.EnergyPJ*1.05 {
		t.Errorf("energy objective produced more energy (%g) than latency objective (%g)",
			eng.EnergyPJ, lat.EnergyPJ)
	}
}
