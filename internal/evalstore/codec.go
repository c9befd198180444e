package evalstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"digamma/internal/cost"
)

// The persistent tier must round-trip scores exactly — a search warmed
// from disk is held to the same bit-identity contract as one warmed from
// memory — so every float is stored as its IEEE-754 bit pattern, never
// formatted. The codec is versioned through the segment header (see
// disk.go); a field added to cost.Score is a format bump, not a silent
// re-interpretation.
//
// An encoded score is seven floats, the level count, then one buffer
// requirement per level: scoreHeadWords + levels words. Key is not
// encoded: it is the entry key's low word, re-derived on decode.

// scoreHeadWords is the encoded size of a score's fixed part in words.
const scoreHeadWords = 8

// scoreLenFor is the encoded size of a score with the given level count.
func scoreLenFor(levels int) int { return 8 * (scoreHeadWords + levels) }

// appendScore encodes s. It grows b once and writes every word at its
// fixed offset; into an arena, whose capped slice already has room, it
// does not allocate.
func appendScore(b []byte, s cost.Score) []byte {
	at, n := len(b), scoreLenFor(s.Levels)
	b = slices.Grow(b, n)[:at+n]
	put := func(i int, v uint64) { binary.LittleEndian.PutUint64(b[at+8*i:], v) }
	put(0, math.Float64bits(s.Cycles))
	put(1, math.Float64bits(s.MappedMACs))
	put(2, math.Float64bits(s.DRAMWords))
	put(3, math.Float64bits(s.NoCWords))
	put(4, math.Float64bits(s.L1Words))
	put(5, math.Float64bits(s.L2Words))
	put(6, math.Float64bits(s.Utilization))
	put(7, uint64(s.Levels))
	for l := 0; l < s.Levels; l++ {
		put(scoreHeadWords+l, math.Float64bits(s.Buffer[l]))
	}
	return b
}

// entryHeadLen is what an 'E' frame holds before its score: the frame
// header, the record type and the key. maxEntryFrame bounds a whole one.
const (
	entryHeadLen  = 8 + 1 + 16
	maxEntryFrame = entryHeadLen + 8*(scoreHeadWords+cost.MaxLevels)
)

// levelCount returns an encoded score's level count (it follows seven
// floats), ok only when the count is at most cost.MaxLevels and the score
// has the one length that count allows — exactly when it decodes, since
// every other word decodes whatever its bits. Replay checks it instead of
// decoding.
func levelCount(b []byte) (int, bool) {
	if len(b) < scoreLenFor(0) {
		return 0, false
	}
	n := binary.LittleEndian.Uint64(b[8*7:])
	return int(n), n <= cost.MaxLevels && len(b) == scoreLenFor(int(n))
}

// decodeScore is the inverse of appendScore, keyed under key. The length
// is checked against the level count first (levelCount), so the words are
// then read at fixed offsets without a check each.
func decodeScore(b []byte, key uint64) (cost.Score, error) {
	n, ok := levelCount(b)
	if !ok {
		return cost.Score{}, fmt.Errorf("evalstore: malformed %d-byte score record", len(b))
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	s := cost.Score{
		Cycles: f(0), MappedMACs: f(1), DRAMWords: f(2), NoCWords: f(3),
		L1Words: f(4), L2Words: f(5), Utilization: f(6),
		Levels: n, Key: key,
	}
	for l := 0; l < n; l++ {
		s.Buffer[l] = f(scoreHeadWords + l)
	}
	return s, nil
}
