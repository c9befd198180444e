package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// The binary state encoding is the one byte form of an individual: the
// distributed protocol ships migrants and final bests in it, the
// coordinator forwards the bytes without decoding them, and checkpoints
// store each island's population in it. Layout, all integers
// varint-encoded (encoding/binary):
//
//	uvarint  number of states, then per state:
//	uvarint  number of fanouts, then each fanout as a zig-zag varint
//	uvarint  number of mappings, then per mapping:
//	  uvarint  number of levels, then per level:
//	  byte     spatial dim
//	  6 bytes  loop order, outermost first
//	  6 × zig-zag varint  tiles, indexed by dim
//	8 bytes  fitness, IEEE-754 bits little-endian (round-trips exactly)
//	byte     pruned: 0 or 1
//
// Decoding is strict, so an encoding has exactly one byte form: varints
// must be minimal, the pruned byte 0 or 1, and no bytes may trail. A
// decoded list therefore re-encodes to the bytes it came from, which is
// what keeps the coordinator's byte-for-byte replay check meaningful.

// IndividualState is one decoded population member: its genome and how
// it was scored. Pruned individuals carry their fitness lower bound and
// are rebuilt without re-running the cost model; everything else is
// re-evaluated when installed (evaluation is pure, so the fitness must
// come back identical — checked).
type IndividualState struct {
	Fanouts []int
	Maps    []mapping.Mapping
	Fitness float64
	Pruned  bool
}

// Smallest encodings, which bound every decoded count by the bytes left:
// a state with no fanouts and no mappings, and one mapping level.
const (
	stateMinBytes = 1 + 1 + 8 + 1
	levelMinBytes = 1 + 2*int(workload.NumDims)
)

// AppendStates appends the binary encoding of states to b.
func AppendStates(b []byte, states []IndividualState) []byte {
	b = binary.AppendUvarint(b, uint64(len(states)))
	for i := range states {
		st := &states[i]
		b = appendState(b, st.Fanouts, st.Maps, st.Fitness, st.Pruned)
	}
	return b
}

// appendIndividuals appends a live selection in the AppendStates
// encoding, straight from the genomes: no IndividualState copy between.
func appendIndividuals(b []byte, sel []individual) []byte {
	b = binary.AppendUvarint(b, uint64(len(sel)))
	for _, ind := range sel {
		b = appendState(b, ind.genome.Fanouts, ind.genome.Maps, ind.eval.Fitness, ind.eval.Pruned)
	}
	return b
}

func appendState(b []byte, fanouts []int, maps []mapping.Mapping, fitness float64, pruned bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(fanouts)))
	for _, f := range fanouts {
		b = binary.AppendVarint(b, int64(f))
	}
	b = binary.AppendUvarint(b, uint64(len(maps)))
	for _, m := range maps {
		b = binary.AppendUvarint(b, uint64(len(m.Levels)))
		for li := range m.Levels {
			lv := &m.Levels[li]
			b = append(b, byte(lv.Spatial))
			for _, d := range lv.Order {
				b = append(b, byte(d))
			}
			for _, t := range lv.Tiles {
				b = binary.AppendVarint(b, int64(t))
			}
		}
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fitness))
	if pruned {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeStates decodes an AppendStates encoding. Malformed input is an
// error, never a panic, and allocation stays linear in len(b). The genomes
// are not checked against any problem; the island that installs them does
// that (CheckCanonical, then re-evaluation).
func DecodeStates(b []byte) ([]IndividualState, error) {
	r := stateReader{b: b}
	out := make([]IndividualState, r.count(stateMinBytes))
	for i := range out {
		if r.err != nil {
			break
		}
		r.state(&out[i])
	}
	if r.err == nil && r.left() > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", r.left()))
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// stateReader consumes an encoding front to back. The first failure
// sticks: DecodeStates discards everything read after it, and count
// returns zero, so nothing is sized from it. The reader advances an
// offset rather than re-slicing b, so a read stores no pointer.
type stateReader struct {
	b    []byte
	off  int // bytes consumed
	err  error
	slab []mapping.Level // backing the decoded mappings' levels
}

// levelSlab caps one slab allocation of decoded mapping levels.
const levelSlab = 256

// levels carves an owned cap==len block of n levels from the reader's
// slab, so one allocation backs many mappings. A new slab holds at most
// what the remaining input could still encode, keeping allocation linear
// in len(b); cap==len keeps a later structural append by a breeding
// operator from scribbling over the next block.
func (r *stateReader) levels(n int) []mapping.Level {
	if len(r.slab) < n {
		r.slab = make([]mapping.Level, max(n, min(levelSlab, r.left()/levelMinBytes)))
	}
	s := r.slab[:n:n]
	r.slab = r.slab[n:]
	return s
}

func (r *stateReader) left() int { return len(r.b) - r.off }

func (r *stateReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: state encoding: %s at byte %d", what, r.off)
	}
}

// minimal reports whether the n-byte varint at the read offset is in its
// shortest form: only a one-byte varint may end in a zero byte.
func (r *stateReader) minimal(n int) bool {
	if n <= 0 {
		r.fail("malformed varint")
		return false
	}
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.fail("non-minimal varint")
		return false
	}
	return true
}

// uvarint reads one varint. One-byte varints — nearly every count,
// fanout and tile — are minimal by construction and skip the error check.
// After a failure they may still be consumed: every result is discarded
// then, and count refuses to size anything.
func (r *stateReader) uvarint() uint64 {
	if b := r.b[r.off:]; len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	return r.uvarintSlow()
}

func (r *stateReader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if !r.minimal(n) {
		return 0
	}
	r.off += n
	return v
}

// int reads a zig-zag varint, the encoding binary.AppendVarint writes.
func (r *stateReader) int() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if strconv.IntSize < 64 && int64(int(v)) != v {
		r.fail("integer out of range")
		return 0
	}
	return int(v)
}

// count reads a length whose items each take at least size bytes, so it
// can never exceed what the remaining input could hold.
func (r *stateReader) count(size int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.left()/size) {
		r.fail(fmt.Sprintf("count %d exceeds the %d bytes left", v, r.left()))
		return 0
	}
	return int(v)
}

func (r *stateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.left() < n {
		r.fail("truncated")
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *stateReader) state(st *IndividualState) {
	st.Fanouts = make([]int, r.count(1))
	for i := range st.Fanouts {
		st.Fanouts[i] = r.int()
	}
	st.Maps = make([]mapping.Mapping, r.count(1))
	for mi := range st.Maps {
		levels := r.levels(r.count(levelMinBytes))
		for li := range levels {
			lv := &levels[li]
			dims := r.bytes(1 + int(workload.NumDims))
			if dims == nil {
				return
			}
			lv.Spatial = workload.Dim(dims[0])
			for d := range lv.Order {
				lv.Order[d] = workload.Dim(dims[1+d])
			}
			for d := range lv.Tiles {
				lv.Tiles[d] = r.int()
			}
		}
		st.Maps[mi].Levels = levels
	}
	if fit := r.bytes(8); fit != nil {
		st.Fitness = math.Float64frombits(binary.LittleEndian.Uint64(fit))
	}
	switch p := r.bytes(1); {
	case p == nil:
	case p[0] > 1:
		r.fail("pruned flag is not 0 or 1")
	default:
		st.Pruned = p[0] == 1
	}
}
