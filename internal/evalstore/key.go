// Package evalstore is the cross-request analysis tier: a process-wide,
// optionally disk-backed store of per-layer cost-model scores sitting
// behind each search's private evalcache L1. Both tiers key on one
// collision-safe, process-independent 128-bit content hash of every
// analysis input — layer spec, fanout vector, mapping block, backend
// identity, fixed-HW bandwidth context and the cost-model fingerprint —
// this tier on the whole Key, the L1 on its low word. Any two searches,
// in any process at any time, that analyze the same configuration
// therefore share one analysis. The store holds each one as its encoded
// 'E' frame — the bytes its budget charges and its segments hold — in one
// arena per generation, mapped outside the Go heap, behind pointer-free
// shard maps; a hit decodes the frame into a cost.Score by value, which
// goes into an L1 as it is.
//
// Per-layer analyses are pure functions of those inputs, so cache sharing
// never changes evaluation values, only their cost: searches with the
// shared tier attached are bit-identical to searches without it (pinned
// by the golden suite). The store also keeps a small index of completed
// search results, which opt-in warm starts seed new populations from —
// that DOES change search trajectories, which is why warm start is a
// separate knob hashed into the serving dedup key.
package evalstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"

	"digamma/internal/arch"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// Key is the 128-bit content hash one per-layer analysis is stored under:
// a Murmur3-style mix of the probe genes seeded by the SHA-256 context
// digest of every other analysis input. A Key is stable across processes
// and restarts and collision-safe at any realistic store size; Lo alone is
// the 64-bit key of a search's private L1 (cost.Score.Key).
type Key struct{ Hi, Lo uint64 }

// Context digests the analysis inputs that are fixed for one
// (problem, layer) pair across every probe: the cost-model fingerprint,
// the backend identity, the layer spec, and — in fixed-HW mode — the
// given hardware's non-gene analysis inputs (bandwidths, word sizes,
// interconnect configs). Problems compute one Context per unique layer
// up front; per-probe keys then hash only the genes (fanouts + mapping
// block) on top of it.
type Context [32]byte

// SpecHash returns the context's short hex form, used by the warm-start
// result index as a per-layer identity ("these two searches analyzed the
// same layer under the same model version, backend and HW context").
func (c Context) SpecHash() string { return hex.EncodeToString(c[:16]) }

// NewContexts builds the per-layer contexts for one problem.
//
// The layer encoding covers exactly the fields the analyzer reads: type,
// the six dimension bounds and the effective strides. Name and Count are
// deliberately excluded — the display name is cosmetic and the
// multiplicity is applied during reduction, after analysis — so renamed
// or repeated layers still share analyses.
//
// fixed, when non-nil, is the problem's fixed hardware. Its static
// analysis inputs (fanouts, per-level NoC configs or the flat bandwidth,
// DRAM bandwidth, word size, clock) are folded in because they feed the
// cost model without appearing in the genome. In co-opt mode the
// hardware is derived from the HW genes plus arch defaults, which the
// fingerprint already pins.
func NewContexts(fingerprint, backend string, layers []workload.Layer, fixed *arch.HW) []Context {
	prefix := make([]byte, 0, 256)
	prefix = appendString(prefix, "digamma-evalstore/ctx1")
	prefix = appendString(prefix, fingerprint)
	prefix = appendString(prefix, backend)
	if fixed != nil {
		hw := fixed.Defaults()
		prefix = appendUint(prefix, 1) // fixed-HW mode marker
		prefix = appendUint(prefix, uint64(len(hw.Fanouts)))
		for _, f := range hw.Fanouts {
			prefix = appendUint(prefix, uint64(f))
		}
		prefix = appendFloat(prefix, hw.NoCWordsPerCycle)
		prefix = appendFloat(prefix, hw.DRAMWordsPerCycle)
		prefix = appendFloat(prefix, hw.ClockGHz)
		prefix = appendUint(prefix, uint64(hw.BytesPerWord))
		prefix = appendUint(prefix, uint64(len(hw.NoC)))
		for _, nc := range hw.NoC {
			prefix = appendString(prefix, nc.Topology.String())
			prefix = appendFloat(prefix, nc.LinkWords)
		}
	} else {
		prefix = appendUint(prefix, 0)
	}

	out := make([]Context, len(layers))
	buf := make([]byte, 0, len(prefix)+96)
	for i := range layers {
		l := &layers[i]
		sy, sx := l.Strides()
		buf = append(buf[:0], prefix...)
		buf = appendUint(buf, uint64(l.Type))
		buf = appendUint(buf, uint64(l.K))
		buf = appendUint(buf, uint64(l.C))
		buf = appendUint(buf, uint64(l.Y))
		buf = appendUint(buf, uint64(l.X))
		buf = appendUint(buf, uint64(l.R))
		buf = appendUint(buf, uint64(l.S))
		buf = appendUint(buf, uint64(sy))
		buf = appendUint(buf, uint64(sx))
		out[i] = sha256.Sum256(buf)
	}
	return out
}

// ProbeKey hashes the genes of one probe — the shared fanout vector and
// the layer's mapping block — on top of the layer's context digest,
// yielding the 128-bit content key both cache tiers use: the shared store
// keys on all of it, each search's private L1 on Key.Lo.
//
// Keys are derived on every L1 probe, so the probe genes take a
// Murmur3-style 128-bit word mix rather than a SHA-256: allocation-free,
// process-independent (pure arithmetic, no per-process seeds) and
// collision-safe at any realistic store size (the genes are search
// genomes, not adversarial input). The SHA-256 context digest seeds both
// mixing lanes, so problems and layers keep full cryptographic
// separation; only the per-probe gene suffix takes the fast path.
//
// The word stream is mixed two words at a time; its layout is part of the
// segment format (see segMagic):
//
//	header   len(fanouts) | len(levels)<<32
//	fanouts  one word each, then a zero word if the count with the
//	         header is odd
//	level    spatial+order | tile[K]<<32,  tile[C] | tile[Y]<<32,
//	         tile[X] | tile[R]<<32,        tile[S]
//
// The spatial dimension and the loop order take 3 bits each (21 bits).
// Tiles pack two to a word: a repaired tile never exceeds its layer
// dimension, which workload.Layer.Validate bounds by workload.MaxExtent
// (2^24), so every packed gene fits its 32-bit half.
func ProbeKey(ctx *Context, fanouts []int, m mapping.Mapping) Key {
	var h keyMixer
	h.seed(ctx)
	prev := uint64(len(fanouts)) | uint64(len(m.Levels))<<32
	for i, f := range fanouts {
		if i%2 == 0 {
			h.mix(prev, uint64(f))
		} else {
			prev = uint64(f)
		}
	}
	if len(fanouts)%2 == 0 {
		h.mix(prev, 0)
	}
	for i := range m.Levels {
		lv := &m.Levels[i]
		o, t := &lv.Order, &lv.Tiles
		order := uint64(lv.Spatial)<<18 | uint64(o[0])<<15 | uint64(o[1])<<12 |
			uint64(o[2])<<9 | uint64(o[3])<<6 | uint64(o[4])<<3 | uint64(o[5])
		h.mix(order|uint64(t[0])<<32, uint64(t[1])|uint64(t[2])<<32)
		h.mix(uint64(t[3])|uint64(t[4])<<32, uint64(t[5]))
	}
	return h.sum()
}

// The level layout above packs exactly six tiles: a seventh dimension
// must change it (and the segment magic).
const _ = uint(workload.NumDims-6) + uint(6-workload.NumDims)

// Packed tiles must fit their 32-bit halves.
const _ = uint32(workload.MaxExtent)

// keyMixer is the Murmur3 x64 128-bit construction over a stream of
// word pairs (each pair is one 16-byte block). It is a value type living
// on the caller's stack: hashing a probe performs no allocation.
type keyMixer struct {
	h1, h2 uint64 // accumulator lanes
	n      uint64 // blocks mixed (folded into the finalizer)
}

const (
	probeC1 = 0x87c37b91114253d5
	probeC2 = 0x4cf5ad432745937f
)

// seed initializes the lanes from the full 256-bit context digest, its
// halves folded together.
func (h *keyMixer) seed(ctx *Context) {
	h.h1 = binary.LittleEndian.Uint64(ctx[0:8]) ^ binary.LittleEndian.Uint64(ctx[16:24])
	h.h2 = binary.LittleEndian.Uint64(ctx[8:16]) ^ binary.LittleEndian.Uint64(ctx[24:32])
}

// mix runs one Murmur3 block round over the word pair (k1, k2).
func (h *keyMixer) mix(k1, k2 uint64) {
	h.n++
	k1 *= probeC1
	k1 = bits.RotateLeft64(k1, 31)
	k1 *= probeC2
	h.h1 ^= k1
	h.h1 = bits.RotateLeft64(h.h1, 27)
	h.h1 += h.h2
	h.h1 = h.h1*5 + 0x52dce729
	k2 *= probeC2
	k2 = bits.RotateLeft64(k2, 33)
	k2 *= probeC1
	h.h2 ^= k2
	h.h2 = bits.RotateLeft64(h.h2, 31)
	h.h2 += h.h1
	h.h2 = h.h2*5 + 0x38495ab5
}

func (h *keyMixer) sum() Key {
	h.h1 ^= h.n * 16
	h.h2 ^= h.n * 16
	h.h1 += h.h2
	h.h2 += h.h1
	h.h1 = fmix64(h.h1)
	h.h2 = fmix64(h.h2)
	h.h1 += h.h2
	h.h2 += h.h1
	return Key{Hi: h.h1, Lo: h.h2}
}

// fmix64 is Murmur3's 64-bit finalizer: full avalanche, so every gene bit
// diffuses into every key bit.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func appendUint(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendString length-prefixes so adjacent fields can never absorb each
// other.
func appendString(b []byte, s string) []byte {
	b = appendUint(b, uint64(len(s)))
	return append(b, s...)
}
