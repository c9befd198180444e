package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/space"
)

// randomStates draws n random genomes of the given depth from p's space.
func randomStates(p *coopt.Problem, seed int64, n, levels int) []IndividualState {
	rng := rand.New(rand.NewSource(seed))
	out := make([]IndividualState, n)
	for i := range out {
		g := p.Space.Random(rng, levels)
		out[i] = IndividualState{Fanouts: g.Fanouts, Maps: g.Maps, Fitness: 1e6 + float64(i)/3}
	}
	return out
}

// sameStates compares decoded states field by field, fitness by its bits:
// NaN never equals itself, and -0 equals +0.
func sameStates(t *testing.T, label string, got, want []IndividualState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Fitness) != math.Float64bits(w.Fitness) {
			t.Errorf("%s: state %d fitness bits %x, want %x", label, i, math.Float64bits(g.Fitness), math.Float64bits(w.Fitness))
		}
		g.Fitness, w.Fitness = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: state %d decodes to %+v, want %+v", label, i, g, w)
		}
	}
}

// TestStatesRoundTrip: every shape of elite the engine exports decodes
// to the states it was encoded from, re-encodes to the same bytes, and
// every strict prefix of its encoding is an error.
func TestStatesRoundTrip(t *testing.T) {
	p := zooProblem(t, "resnet50")
	fixed, err := zooProblem(t, "resnet18").WithFixedHW(arch.HW{Fanouts: []int{16, 8}, BufBytes: []int64{8 << 10, 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	pruned := randomStates(p, 1, 3, 2)
	pruned[1].Pruned = true
	special := randomStates(p, 2, 5, 2)
	special[0].Fitness = math.NaN()
	special[1].Fitness = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	special[2].Fitness = math.Inf(1)
	special[3].Fitness = math.Inf(-1)
	special[4].Fitness = math.Copysign(0, -1)

	for _, c := range []struct {
		name   string
		states []IndividualState
	}{
		{"zero-exports", []IndividualState{}},
		{"one-level", randomStates(p, 3, 4, 1)},
		{"two-level", randomStates(p, 4, 4, 2)},
		{"three-level", randomStates(p, 5, 4, 3)},
		{"pruned", pruned},
		{"fixed-hw", randomStates(fixed, 6, 4, 2)},
		{"nan-inf", special},
	} {
		enc := AppendStates(nil, c.states)
		got, err := DecodeStates(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameStates(t, c.name, got, c.states)
		if re := AppendStates(nil, got); !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encodes to different bytes", c.name)
		}
		for n := range enc {
			if _, err := DecodeStates(enc[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", c.name, n, len(enc))
			}
		}
		if _, err := DecodeStates(append(enc, 0)); err == nil {
			t.Errorf("%s: trailing byte decoded", c.name)
		}
	}
}

// TestAppendIndividualsMatchesStates: the worker's direct encoding of a
// live selection equals the encoding of its cloned IndividualStates.
func TestAppendIndividualsMatchesStates(t *testing.T) {
	p := zooProblem(t, "bert")
	var sel []individual
	var states []IndividualState
	for _, st := range randomStates(p, 7, 4, 3) {
		g := p.Space.Repair(space.Genome{Fanouts: st.Fanouts, Maps: st.Maps})
		ev, err := p.EvaluateCanonical(g)
		if err != nil {
			t.Fatal(err)
		}
		sel = append(sel, individual{g, ev})
		c := g.Clone()
		states = append(states, IndividualState{Fanouts: c.Fanouts, Maps: c.Maps, Fitness: ev.Fitness, Pruned: ev.Pruned})
	}
	if got, want := appendIndividuals(nil, sel), AppendStates(nil, states); !bytes.Equal(got, want) {
		t.Fatalf("appendIndividuals wrote %d bytes, AppendStates %d, and they differ", len(got), len(want))
	}
}

// hugeCounts are encodings whose counts claim far more items than the
// input holds; FuzzDecodeStates' committed corpus holds them too.
func hugeCounts() map[string][]byte {
	big := binary.AppendUvarint(nil, 1<<62)
	return map[string][]byte{
		"huge-state-count":   append(append([]byte(nil), big...), make([]byte, 16)...),
		"huge-fanout-count":  append(append([]byte{1}, big...), make([]byte, 16)...),
		"huge-mapping-count": append(append([]byte{1, 0}, big...), make([]byte, 16)...),
		"huge-level-count":   append(append([]byte{1, 0, 1}, big...), make([]byte, 16)...),
	}
}

// TestDecodeStatesAllocBounded: a count larger than the input could hold
// is refused before anything is allocated for it.
func TestDecodeStatesAllocBounded(t *testing.T) {
	for name, data := range hugeCounts() {
		const reads = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if _, err := DecodeStates(data); err == nil {
				t.Fatalf("%s decoded", name)
			}
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead > 4<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes per read", name, len(data), perRead)
		}
	}
}

// FuzzDecodeStates: arbitrary bytes decode to an error or to states that
// re-encode to exactly the same bytes (the coordinator's replay check
// compares encodings, so each list must have one byte form), never a
// panic. Every decoded item takes at least one input byte, which bounds
// allocation by the input length. The committed corpus holds resnet50
// and bert exports from real runs, a truncated export and huge counts.
func FuzzDecodeStates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		states, err := DecodeStates(data)
		if err != nil {
			return
		}
		items := len(states)
		for _, st := range states {
			items += len(st.Fanouts) + len(st.Maps)
			for _, m := range st.Maps {
				items += len(m.Levels)
			}
		}
		if items > len(data) {
			t.Fatalf("%d input bytes decoded to %d items", len(data), items)
		}
		if re := AppendStates(nil, states); !bytes.Equal(re, data) {
			t.Fatalf("%d input bytes re-encode to %d different bytes", len(data), len(re))
		}
	})
}
