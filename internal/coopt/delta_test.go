package coopt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/mapping"
	"digamma/internal/space"
)

// deltaBackends are the fidelity tiers the delta equivalence property is
// pinned on; nil is the default analytical path.
func deltaBackends() map[string]cost.Backend {
	return map[string]cost.Backend{
		"analytical": nil,
		"physical":   cost.DefaultPhysical(),
		"bound":      cost.Bound{},
	}
}

// sameEvaluation compares every caller-visible scored field exactly —
// bit-identical, not approximately.
func sameEvaluation(t *testing.T, label string, delta, full *Evaluation) {
	t.Helper()
	if delta.Fitness != full.Fitness || delta.Cycles != full.Cycles ||
		delta.EnergyPJ != full.EnergyPJ || delta.LatAreaProd != full.LatAreaProd ||
		delta.Overflow != full.Overflow || delta.Valid != full.Valid ||
		delta.Pruned != full.Pruned {
		t.Fatalf("%s: delta %+v\n != full %+v",
			label, fingerprint(delta), fingerprint(full))
	}
	if !slices.Equal(delta.HW.BufBytes, full.HW.BufBytes) {
		t.Fatalf("%s: derived buffers differ: %v != %v", label, delta.HW.BufBytes, full.HW.BufBytes)
	}
	if delta.Area != full.Area {
		t.Fatalf("%s: area differs: %+v != %+v", label, delta.Area, full.Area)
	}
	if len(delta.Layers) != len(full.Layers) {
		t.Fatalf("%s: layer detail length %d != %d", label, len(delta.Layers), len(full.Layers))
	}
	for li := range delta.Layers {
		if !sameBits(delta.Layers[li].Score, full.Layers[li].Score) {
			t.Fatalf("%s: layer %d detail differs", label, li)
		}
	}
}

// perturbLayers clones the parent genome and re-randomizes k mapping
// blocks, returning the child and the honest dirty set.
func perturbLayers(rng *rand.Rand, p *Problem, parent space.Genome, k int) (space.Genome, space.Dirty) {
	child := space.Genome{
		Fanouts: slices.Clone(parent.Fanouts),
		Maps:    slices.Clone(parent.Maps),
	}
	var d space.Dirty
	for n := 0; n < k; n++ {
		li := rng.Intn(len(child.Maps))
		child.Maps[li] = mapping.Random(rng, p.Space.Layers[li], len(parent.Fanouts))
		d.MarkLayer(li)
	}
	return child, d
}

// TestDeltaMatchesFullRandomized is the delta-vs-full equivalence
// property: for random parents and random per-layer perturbations, across
// every fidelity backend and objective, the delta path's Evaluation is
// bit-identical to a from-scratch EvaluateCanonical of the same child.
func TestDeltaMatchesFullRandomized(t *testing.T) {
	for name, backend := range deltaBackends() {
		for _, obj := range []Objective{Latency, Energy, EDP, LatencyAreaProduct} {
			p := mustProblem(t, obj).WithBackend(backend)
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 60; trial++ {
				parentG := p.Space.Repair(p.Space.Random(rng, 2))
				parent, err := p.EvaluateCanonical(parentG)
				if err != nil {
					t.Fatal(err)
				}
				child, d := perturbLayers(rng, p, parent.Genome, 1+rng.Intn(len(parentG.Maps)))
				var ev Evaluation
				reused, err := p.EvaluateDelta(&ev, child, parent, d)
				if err != nil {
					t.Fatal(err)
				}
				if reused < 0 {
					t.Fatalf("%s/%v trial %d: delta path refused an eligible child", name, obj, trial)
				}
				full, err := p.EvaluateCanonical(child)
				if err != nil {
					t.Fatal(err)
				}
				sameEvaluation(t, name+"/"+obj.String(), &ev, full)
			}
		}
	}
}

// TestDeltaMatchesFullFixedHW repeats the property in Fixed-HW mode,
// where buffers are capacity constraints rather than derived allocations.
func TestDeltaMatchesFullFixedHW(t *testing.T) {
	hw := arch.HW{Fanouts: []int{8, 4}, BufBytes: []int64{1 << 10, 64 << 10}}
	base := mustProblem(t, Latency)
	p, err := base.WithFixedHW(hw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		parentG := p.Space.Repair(p.Space.Random(rng, 2))
		parent, err := p.EvaluateCanonical(parentG)
		if err != nil {
			t.Fatal(err)
		}
		child, d := perturbLayers(rng, p, parent.Genome, 1)
		var ev Evaluation
		reused, err := p.EvaluateDelta(&ev, child, parent, d)
		if err != nil {
			t.Fatal(err)
		}
		if reused != len(p.Space.Layers)-1 {
			t.Fatalf("trial %d: reused %d layers, want %d", trial, reused, len(p.Space.Layers)-1)
		}
		full, err := p.EvaluateCanonical(child)
		if err != nil {
			t.Fatal(err)
		}
		sameEvaluation(t, "fixed-hw", &ev, full)
	}
}

// TestDeltaFallsBack pins the eligibility gate: HW-dirty or structurally
// dirty children, pruned parents, and mapping-rule problems must all take
// the full path (reused == -1) and still score correctly.
func TestDeltaFallsBack(t *testing.T) {
	p := mustProblem(t, Latency)
	rng := rand.New(rand.NewSource(47))
	parentG := p.Space.Repair(p.Space.Random(rng, 2))
	parent, err := p.EvaluateCanonical(parentG)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, child space.Genome, par *Evaluation, d space.Dirty) {
		t.Helper()
		var ev Evaluation
		reused, err := p.EvaluateDelta(&ev, child, par, d)
		if err != nil {
			t.Fatal(err)
		}
		if reused != -1 {
			t.Fatalf("%s: expected full-path fallback, got %d reused layers", label, reused)
		}
		full, err := p.EvaluateCanonical(child)
		if err != nil {
			t.Fatal(err)
		}
		sameEvaluation(t, label, &ev, full)
	}

	// HW genes touched: every layer key changes.
	hwChild := space.Genome{Fanouts: slices.Clone(parentG.Fanouts), Maps: slices.Clone(parentG.Maps)}
	hwChild.Fanouts[0] = max(1, hwChild.Fanouts[0]/2)
	var d space.Dirty
	d.MarkHW()
	check("hw-dirty", hwChild, parent, d)

	// Structural dirt (grow/age analogue): MarkAll.
	var all space.Dirty
	all.MarkAll()
	check("all-dirty", parentG, parent, all)

	// Nil parent.
	check("nil-parent", parentG, nil, space.Dirty{})

	// Pruned parent carries no per-layer detail.
	pruned := PrunedEvaluation(parentG, 1)
	check("pruned-parent", parentG, pruned, space.Dirty{})
}

// TestDirtyMarking pins the Dirty set semantics the breeding operators
// rely on, including the ≥64-layer degradation to all-dirty.
func TestDirtyMarking(t *testing.T) {
	var d space.Dirty
	if d.Full() || d.Layer(0) {
		t.Fatal("zero dirty set should be fully clean")
	}
	d.MarkLayer(3)
	if !d.Layer(3) || d.Layer(2) || d.Full() {
		t.Fatalf("per-layer marking broken: %+v", d)
	}
	d.MarkHW()
	if !d.Full() || !d.Layer(2) {
		t.Fatal("HW-dirty must poison every layer")
	}
	var big space.Dirty
	big.MarkLayer(64)
	if !big.All() || !big.Layer(0) {
		t.Fatal("mask overflow must degrade to all-dirty")
	}
	var s space.Dirty
	s.MarkAll()
	if !s.Full() || !s.Layer(63) {
		t.Fatal("MarkAll must cover every layer")
	}
}

// TestPooledEvaluateMatchesFresh pins that scoring into a recycled
// Evaluation leaves no residue: a buffer that scored genome A and is
// recycled must score genome B bit-identically to a fresh buffer.
func TestPooledEvaluateMatchesFresh(t *testing.T) {
	p := mustProblem(t, EDP)
	pool := NewEvalPool()
	rng := rand.New(rand.NewSource(53))
	prev := pool.Get()
	if err := p.EvaluateCanonicalInto(prev, p.Space.Repair(p.Space.Random(rng, 2))); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		g := p.Space.Repair(p.Space.Random(rng, 2))
		pool.Recycle(prev)
		ev := pool.Get() // the just-recycled buffer, full of stale state
		if err := p.EvaluateCanonicalInto(ev, g); err != nil {
			t.Fatal(err)
		}
		fresh, err := p.EvaluateCanonical(g)
		if err != nil {
			t.Fatal(err)
		}
		sameEvaluation(t, "pooled", ev, fresh)
		prev = ev
	}
	gets, reuses := pool.Stats()
	if gets != 51 || reuses != 50 {
		t.Fatalf("pool stats gets=%d reuses=%d, want 51/50", gets, reuses)
	}
}

// TestDetachSelfContained pins the escape contract: a detached
// evaluation carries identical values with fully private backing, so
// retaining it cannot pin pool chunks or breeding arenas — and later
// mutation of the original leaves it untouched.
func TestDetachSelfContained(t *testing.T) {
	p := mustProblem(t, Latency)
	g := p.Space.Repair(p.Space.Random(rand.New(rand.NewSource(61)), 2))
	ev, err := p.EvaluateCanonical(g)
	if err != nil {
		t.Fatal(err)
	}
	det := ev.Detach()
	sameEvaluation(t, "detach", det, ev)
	if &det.Layers[0] == &ev.Layers[0] {
		t.Fatal("detached evaluation shares layer backing")
	}
	if len(ev.HW.BufBytes) > 0 && &det.HW.BufBytes[0] == &ev.HW.BufBytes[0] {
		t.Fatal("detached evaluation shares buffer backing")
	}
	if &det.Genome.Maps[0].Levels[0] == &ev.Genome.Maps[0].Levels[0] {
		t.Fatal("detached evaluation shares genome blocks")
	}
	for li := range ev.Layers {
		if !sameBits(det.Layers[li].Score, ev.Layers[li].Score) {
			t.Fatalf("layer %d: detached score differs", li)
		}
	}
}

// TestPrunedIntoMatchesPrunedEvaluation pins the pooled pruned
// constructor against the allocating one.
func TestPrunedIntoMatchesPrunedEvaluation(t *testing.T) {
	p := mustProblem(t, Latency)
	g := p.Space.Repair(p.Space.Random(rand.New(rand.NewSource(59)), 2))
	want := PrunedEvaluation(g, 123.5)
	var ev Evaluation
	// Dirty the buffer first so stale state must be cleared.
	if err := p.EvaluateCanonicalInto(&ev, g); err != nil {
		t.Fatal(err)
	}
	PrunedInto(&ev, g, 123.5)
	if ev.Fitness != want.Fitness || !ev.Pruned || ev.Valid || len(ev.Layers) != 0 ||
		ev.Cycles != 0 || ev.EnergyPJ != 0 {
		t.Fatalf("PrunedInto left residue: %+v", ev)
	}
	if !reflect.DeepEqual(ev.Genome, want.Genome) {
		t.Fatal("PrunedInto genome mismatch")
	}
}
