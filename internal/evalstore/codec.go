package evalstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"digamma/internal/cost"
	"digamma/internal/workload"
)

// The persistent tier must round-trip results exactly — a search warmed
// from disk is held to the same bit-identity contract as one warmed from
// memory — so every float is stored as its IEEE-754 bit pattern, never
// formatted. The codec is versioned through the segment header (see
// disk.go); a field added to cost.Result is a format bump, not a silent
// re-interpretation.

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// appendResult encodes r (CacheKey excluded — it is the entry key's low
// word, re-derived on load).
func appendResult(b []byte, r *cost.Result) []byte {
	b = appendFloat(b, r.Cycles)
	b = appendFloat(b, r.ComputeOnly)
	b = appendFloat(b, r.MappedMACs)
	b = appendFloat(b, r.DRAMWords)
	b = appendFloat(b, r.NoCWords)
	b = appendFloat(b, r.L1Words)
	b = appendFloat(b, r.L2Words)
	b = appendFloat(b, r.Utilization)
	b = appendUint(b, uint64(len(r.Levels)))
	for i := range r.Levels {
		lv := &r.Levels[i]
		for _, t := range lv.Trips {
			b = appendUint(b, uint64(t))
		}
		b = appendUint(b, uint64(lv.Fanout))
		b = appendUint(b, uint64(lv.Occupancy))
		b = appendFloat(b, lv.Iterations)
		b = appendFloat(b, lv.IngressWords)
		b = appendFloat(b, lv.EgressWords)
		b = appendFloat(b, lv.BufferWords.Weights)
		b = appendFloat(b, lv.BufferWords.Inputs)
		b = appendFloat(b, lv.BufferWords.Outputs)
	}
	return b
}

// resultLen is len(appendResult(nil, r)): eight floats and the level
// count, then per level its trip counts and eight more words.
func resultLen(r *cost.Result) int {
	return 9*8 + len(r.Levels)*(int(workload.NumDims)+8)*8
}

// entryFrameLen is the size of r's framed 'E' record: the frame header,
// the record type, the key and the result. The store charges it to the
// active generation whether or not a disk is attached.
func entryFrameLen(r *cost.Result) int64 {
	return int64(8 + 1 + 16 + resultLen(r))
}

// resultCodec reads fixed-width little-endian words off a record payload.
type resultCodec struct {
	b   []byte
	off int
	err error
}

func (c *resultCodec) uint() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("evalstore: truncated record (%d of %d bytes)", c.off, len(c.b))
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *resultCodec) float() float64 { return bitsFloat(c.uint()) }

// maxLevels bounds decoded hierarchy depth; real mappings have a handful
// of levels, so anything huge is corruption the CRC happened to miss.
const maxLevels = 64

// decodeResult is the inverse of appendResult.
func decodeResult(b []byte) (*cost.Result, error) {
	c := resultCodec{b: b}
	r := &cost.Result{
		Cycles:      c.float(),
		ComputeOnly: c.float(),
		MappedMACs:  c.float(),
		DRAMWords:   c.float(),
		NoCWords:    c.float(),
		L1Words:     c.float(),
		L2Words:     c.float(),
		Utilization: c.float(),
	}
	n := c.uint()
	if c.err != nil {
		return nil, c.err
	}
	if n > maxLevels {
		return nil, fmt.Errorf("evalstore: implausible level count %d", n)
	}
	r.Levels = make([]cost.LevelStats, n)
	for i := range r.Levels {
		lv := &r.Levels[i]
		for d := range lv.Trips {
			lv.Trips[d] = int(c.uint())
		}
		lv.Fanout = int(c.uint())
		lv.Occupancy = int(c.uint())
		lv.Iterations = c.float()
		lv.IngressWords = c.float()
		lv.EgressWords = c.float()
		lv.BufferWords.Weights = c.float()
		lv.BufferWords.Inputs = c.float()
		lv.BufferWords.Outputs = c.float()
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(b) {
		return nil, fmt.Errorf("evalstore: %d trailing bytes in record", len(b)-c.off)
	}
	return r, nil
}
