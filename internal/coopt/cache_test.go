package coopt

import (
	"math"
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/evalstore"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// evalFingerprint captures everything a caching bug could corrupt.
type evalFingerprint struct {
	fitness, cycles, energy, latArea, overflow float64
	valid                                      bool
}

func fingerprint(ev *Evaluation) evalFingerprint {
	return evalFingerprint{ev.Fitness, ev.Cycles, ev.EnergyPJ, ev.LatAreaProd, ev.Overflow, ev.Valid}
}

// testRule is a minimal Fixed-Mapping rule: minimal inner tiles, full outer
// tiles, always legal.
func testRule(hw arch.HW, layer workload.Layer) mapping.Mapping {
	m := mapping.Mapping{Levels: make([]mapping.Level, hw.Levels())}
	for li := range m.Levels {
		lv := &m.Levels[li]
		lv.Spatial = workload.K
		lv.Order = mapping.CanonicalOrder()
		for _, d := range workload.AllDims {
			if li == 0 {
				lv.Tiles[d] = 1
			} else {
				lv.Tiles[d] = layer.Dim(d)
			}
		}
	}
	m.RepairInPlace(layer)
	return m
}

// TestCachedMatchesColdAllObjectives drives the same genome sequence
// through a cached and an uncached problem for every objective and
// compares every scored field exactly.
func TestCachedMatchesColdAllObjectives(t *testing.T) {
	for _, obj := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
		warm := mustProblem(t, obj)
		cold := mustProblem(t, obj)
		cold.Cache = nil
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 60; i++ {
			g := warm.Space.Random(rng, 2)
			// Evaluate the same genome repeatedly so later rounds hit the
			// cache while the cold problem recomputes.
			for rep := 0; rep < 2; rep++ {
				ew, err := warm.Evaluate(g)
				if err != nil {
					t.Fatal(err)
				}
				ec, err := cold.Evaluate(g)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(ew) != fingerprint(ec) {
					t.Fatalf("objective %v genome %d rep %d: cached %+v != cold %+v",
						obj, i, rep, fingerprint(ew), fingerprint(ec))
				}
			}
		}
		if st := warm.Cache.Stats(); st.Hits == 0 {
			t.Fatalf("objective %v: cache never hit (stats %+v)", obj, st)
		}
	}
}

// TestSharedHitFillsL1WithoutAlloc: a shared-tier hit decodes a score
// by value that already carries the L1 key, so it goes into the L1 as it
// is: the hit allocates nothing beyond the L1's share of an entry slab
// (none per hit, averaged), and the next probe hits the L1 on a score
// bit-equal to the store's.
func TestSharedHitFillsL1WithoutAlloc(t *testing.T) {
	store := evalstore.NewMemory()
	seed := mustProblem(t, Latency).WithShared(store)
	p := mustProblem(t, Latency).WithShared(store)
	g := p.Space.Repair(p.Space.Random(rand.New(rand.NewSource(3)), 2))
	if _, err := seed.Evaluate(g); err != nil { // fills the store
		t.Fatal(err)
	}
	hw, _ := p.prepareHW(&Evaluation{Genome: g})
	for li := range p.Space.Layers {
		k := evalstore.ProbeKey(&p.Contexts()[li], g.Fanouts, g.Maps[li])
		want, ok := store.Get(k)
		if !ok {
			t.Fatalf("layer %d: the seeding search did not publish its analysis", li)
		}
		var got cost.Score
		allocs := testing.AllocsPerRun(50, func() {
			p.Cache.Reset()
			_ = p.analyzeLayer(hw, g, li, &got)
		})
		if allocs != 0 {
			t.Errorf("layer %d: a shared hit allocated %.1f times", li, allocs)
		}
		if !sameBits(got, want) {
			t.Fatalf("layer %d: the shared hit returned %+v, the store holds %+v", li, got, want)
		}
		if r, ok := p.Cache.Get(k.Lo); !ok || !sameBits(*r, want) {
			t.Fatalf("layer %d: the L1 does not hold the store's score under the key's low word", li)
		}
	}
	if p.SharedHits() == 0 {
		t.Fatal("no shared hits counted")
	}
}

// sameBits reports whether two scores hold bit-identical fields, Key
// included.
func sameBits(x, y cost.Score) bool {
	fx := []float64{x.Cycles, x.MappedMACs, x.DRAMWords, x.NoCWords, x.L1Words, x.L2Words, x.Utilization}
	fy := []float64{y.Cycles, y.MappedMACs, y.DRAMWords, y.NoCWords, y.L1Words, y.L2Words, y.Utilization}
	fx, fy = append(fx, x.Buffer[:]...), append(fy, y.Buffer[:]...)
	for i := range fx {
		if math.Float64bits(fx[i]) != math.Float64bits(fy[i]) {
			return false
		}
	}
	return x.Levels == y.Levels && x.Key == y.Key
}

// TestCachedMatchesColdFixedHW repeats the comparison in Fixed-HW mode,
// where buffers act as constraints.
func TestCachedMatchesColdFixedHW(t *testing.T) {
	hw := arch.HW{Fanouts: []int{8, 4}, BufBytes: []int64{1 << 10, 64 << 10}}
	base := mustProblem(t, Latency)
	warm, err := base.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := base.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = nil
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		g := warm.Space.Random(rng, 2)
		ew, err := warm.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := cold.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(ew) != fingerprint(ec) {
			t.Fatalf("genome %d: cached %+v != cold %+v", i, fingerprint(ew), fingerprint(ec))
		}
	}
}

// TestCachedMatchesColdFixedMapping repeats the comparison in Fixed-Mapping
// (HW-only) mode, where the rule rewrites the mapping genes per candidate.
func TestCachedMatchesColdFixedMapping(t *testing.T) {
	base := mustProblem(t, Latency)
	warm, err := base.WithFixedMapping(testRule)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := base.WithFixedMapping(testRule)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = nil
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		g := warm.Space.Random(rng, 2)
		ew, err := warm.Evaluate(g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		ec, err := cold.Evaluate(g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(ew) != fingerprint(ec) {
			t.Fatalf("genome %d: cached %+v != cold %+v", i, fingerprint(ew), fingerprint(ec))
		}
	}
}

// TestFixedMappingDoesNotMutateCaller pins a regression: with the
// canonical-repair fast path no longer cloning, Fixed-Mapping evaluation
// must still not write the rule's derived mappings into the caller's
// genome.
func TestFixedMappingDoesNotMutateCaller(t *testing.T) {
	base := mustProblem(t, Latency)
	fp, err := base.WithFixedMapping(testRule)
	if err != nil {
		t.Fatal(err)
	}
	g := fp.Space.Random(rand.New(rand.NewSource(8)), 2)
	before := g.Clone()
	ev, err := fp.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	for li := range g.Maps {
		if g.Maps[li].String() != before.Maps[li].String() {
			t.Fatalf("Evaluate mutated caller's layer %d:\n got %v\nwant %v",
				li, g.Maps[li], before.Maps[li])
		}
	}
	// The evaluation itself reports the rule-derived genes.
	if ev.Genome.Maps[0].String() == before.Maps[0].String() {
		t.Log("note: rule derivation coincides with the random genome")
	}
}

// TestEvaluateWorkersMatchesSerial checks the per-layer parallel fan-out
// returns bit-identical evaluations.
func TestEvaluateWorkersMatchesSerial(t *testing.T) {
	p := mustProblem(t, EDP)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		g := p.Space.Random(rng, 2)
		serial, err := p.EvaluateWorkers(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := p.EvaluateWorkers(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(serial) != fingerprint(parallel) {
			t.Fatalf("genome %d: workers=8 %+v != serial %+v",
				i, fingerprint(parallel), fingerprint(serial))
		}
	}
}

// TestRepairSharesCanonicalBlocks pins the Repair fast path: an
// already-canonical genome comes back without any cloning.
func TestRepairSharesCanonicalBlocks(t *testing.T) {
	p := mustProblem(t, Latency)
	g := p.Space.Random(rand.New(rand.NewSource(3)), 2)
	out := p.Space.Repair(g)
	if &out.Fanouts[0] != &g.Fanouts[0] {
		t.Error("canonical repair cloned the fanout genes")
	}
	for li := range g.Maps {
		if &out.Maps[li].Levels[0] != &g.Maps[li].Levels[0] {
			t.Errorf("canonical repair cloned layer %d", li)
		}
	}

	// A broken genome must still be fixed — and must not mutate the input.
	bad := g.Clone()
	bad.Maps[0].Levels[0].Tiles[workload.K] = 10_000
	badTile := bad.Maps[0].Levels[0].Tiles[workload.K]
	repaired := p.Space.Repair(bad)
	if err := repaired.Maps[0].Validate(p.Space.Layers[0]); err != nil {
		t.Fatalf("repair left illegal mapping: %v", err)
	}
	if bad.Maps[0].Levels[0].Tiles[workload.K] != badTile {
		t.Error("Repair mutated its input")
	}
}
