package evalstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// word, re-derived on load). It grows b once and writes every word at
// its fixed offset; into an arena, whose capped slice already has room,
// it does not allocate.
func appendResult(b []byte, r *cost.Result) []byte {
	at := len(b)
	b = slices.Grow(b, resultLen(r))[:at+resultLen(r)]
	put := func(i int, v uint64) { binary.LittleEndian.PutUint64(b[at+8*i:], v) }
	put(0, floatBits(r.Cycles))
	put(1, floatBits(r.ComputeOnly))
	put(2, floatBits(r.MappedMACs))
	put(3, floatBits(r.DRAMWords))
	put(4, floatBits(r.NoCWords))
	put(5, floatBits(r.L1Words))
	put(6, floatBits(r.L2Words))
	put(7, floatBits(r.Utilization))
	put(8, uint64(len(r.Levels)))
	for i := range r.Levels {
		lv, w := &r.Levels[i], 9+i*levelWords
		for d, t := range lv.Trips {
			put(w+d, uint64(t))
		}
		w += len(lv.Trips)
		put(w, uint64(lv.Fanout))
		put(w+1, uint64(lv.Occupancy))
		put(w+2, floatBits(lv.Iterations))
		put(w+3, floatBits(lv.IngressWords))
		put(w+4, floatBits(lv.EgressWords))
		put(w+5, floatBits(lv.BufferWords.Weights))
		put(w+6, floatBits(lv.BufferWords.Inputs))
		put(w+7, floatBits(lv.BufferWords.Outputs))
	}
	return b
}

// levelWords is the encoded size of one level in words: its trip counts
// and eight more.
const levelWords = int(workload.NumDims) + 8

// resultLen is len(appendResult(nil, r)).
func resultLen(r *cost.Result) int { return resultLenFor(len(r.Levels)) }

// resultLenFor is the encoded size of a result with the given level
// count: eight floats and the level count, then per level its trip
// counts and eight more words.
func resultLenFor(levels int) int {
	return 9*8 + levels*levelWords*8
}

// entryFrameLen is the size of r's framed 'E' record: the frame header,
// the record type, the key and the result — what the store charges to
// the active generation whether or not a disk is attached.
func entryFrameLen(r *cost.Result) int64 {
	return int64(entryHeadLen + resultLen(r))
}

// entryHeadLen is what an 'E' frame holds before its result: the frame
// header, the record type and the key. maxEntryFrame bounds a whole one.
const (
	entryHeadLen  = 8 + 1 + 16
	maxEntryFrame = entryHeadLen + 9*8 + maxLevels*levelWords*8
)

// levelCount returns an encoded result's level count (it follows eight
// floats), ok only when the count is at most maxLevels and the result
// has the one length that count allows — exactly when it decodes, since
// every other word decodes whatever its bits. Replay checks it instead
// of decoding.
func levelCount(b []byte) (int, bool) {
	if len(b) < 9*8 {
		return 0, false
	}
	n := binary.LittleEndian.Uint64(b[8*8:])
	return int(n), n <= maxLevels && len(b) == resultLenFor(int(n))
}

// maxLevels bounds decoded hierarchy depth; real mappings have a handful
// of levels, so anything huge is corruption the CRC happened to miss.
const maxLevels = 64

// decodeResult is the inverse of appendResult, into a result from
// cost.NewResult that the caller owns. The length is checked against the
// level count first (levelCount), so the words are then read at fixed
// offsets without a check each, and nothing is allocated for a record
// that does not decode.
func decodeResult(b []byte) (*cost.Result, error) {
	n, ok := levelCount(b)
	if !ok {
		return nil, fmt.Errorf("evalstore: malformed %d-byte result record", len(b))
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	r := cost.NewResult(n)
	r.Cycles, r.ComputeOnly = bitsFloat(word(0)), bitsFloat(word(1))
	r.MappedMACs, r.DRAMWords = bitsFloat(word(2)), bitsFloat(word(3))
	r.NoCWords, r.L1Words = bitsFloat(word(4)), bitsFloat(word(5))
	r.L2Words, r.Utilization = bitsFloat(word(6)), bitsFloat(word(7))
	for i := range r.Levels {
		lv, w := &r.Levels[i], 9+i*levelWords
		for d := range lv.Trips {
			lv.Trips[d] = int(word(w + d))
		}
		w += len(lv.Trips)
		lv.Fanout = int(word(w))
		lv.Occupancy = int(word(w + 1))
		lv.Iterations = bitsFloat(word(w + 2))
		lv.IngressWords = bitsFloat(word(w + 3))
		lv.EgressWords = bitsFloat(word(w + 4))
		lv.BufferWords.Weights = bitsFloat(word(w + 5))
		lv.BufferWords.Inputs = bitsFloat(word(w + 6))
		lv.BufferWords.Outputs = bitsFloat(word(w + 7))
	}
	return r, nil
}
