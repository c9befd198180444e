package evalstore

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"

	"digamma/internal/cost"
)

// An arena holds one generation's resident scores as the 'E' frames
// the tier charges to its budget, byte for byte what the generation's
// segment holds. Its bytes are mapped outside the Go heap where the
// platform allows (see mapArena), so the collector neither scans nor
// paces on them; the shard maps only locate frames in it.
//
// Lifetime: frames are appended under Store.logMu, each before the shard
// map entry that points at it is published under its shard lock, and a
// frame is never rewritten. A Get decodes only while it holds the shard
// lock under which it found the entry. Dropping the generation deletes,
// each under its shard lock, every key whose entry still points into the
// arena; once the walk is done no entry points into it and no Get is
// still reading it, and only then is it unmapped.
type arena struct {
	buf  []byte // the whole mapping; never resliced, so Get may bound-check against it
	n    int    // bytes written; read and written under logMu (or by Open)
	from int    // offset of the first frame: past the magic when loaded from a segment
	slot uint32 // index in the store's arenaTable
	seq  uint32 // the generation
}

// maxArenaBytes bounds one arena so entry offsets fit in 32 bits.
const maxArenaBytes int64 = 1 << 31

// fits reports whether n more bytes fit.
func (a *arena) fits(n int) bool { return len(a.buf)-a.n >= n }

// putEntry frames k and s as an 'E' record at the arena's end and returns
// its offset. The caller checked fits(maxEntryFrame), so the capped
// append below never leaves the mapping.
func (a *arena) putEntry(k Key, s cost.Score) uint32 {
	off := a.n
	p := a.buf[off+8 : off+8 : len(a.buf)]
	p = append(p, recEntry)
	p = appendUint(p, k.Hi)
	p = appendUint(p, k.Lo)
	p = appendScore(p, s)
	binary.LittleEndian.PutUint32(a.buf[off:], crc32.ChecksumIEEE(p))
	binary.LittleEndian.PutUint32(a.buf[off+4:], uint32(len(p)))
	a.n += 8 + len(p)
	return uint32(off)
}

// frame returns the whole frame at off, or nil when its header points
// past the mapping.
func (a *arena) frame(off uint32) []byte {
	o := int(off)
	if o > len(a.buf)-8 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(a.buf[o+4:]))
	if n > len(a.buf)-o-8 {
		return nil
	}
	return a.buf[o : o+8+n]
}

// decode returns the score of the 'E' frame at off, keyed under key; ok
// is false when the frame is not one or its score does not decode.
func (a *arena) decode(off uint32, key uint64) (cost.Score, bool) {
	f := a.frame(off)
	if len(f) < entryHeadLen || f[8] != recEntry {
		return cost.Score{}, false
	}
	s, err := decodeScore(f[entryHeadLen:], key)
	return s, err == nil
}

// eachEntry calls fn with the key of every 'E' frame written, walking
// frame headers only. Caller holds logMu.
func (a *arena) eachEntry(fn func(Key)) {
	for off := a.from; off+9 <= a.n; off += 8 + int(binary.LittleEndian.Uint32(a.buf[off+4:])) {
		if a.buf[off+8] == recEntry { // written or replayed whole, so the key is there
			fn(Key{Hi: binary.LittleEndian.Uint64(a.buf[off+9:]), Lo: binary.LittleEndian.Uint64(a.buf[off+17:])})
		}
	}
}

// arenaTable maps entry slots to arenas. Writers hold logMu and publish a
// fresh slice, so a Get resolves a slot without a lock of its own; a
// freed slot is reused by the next arena.
type arenaTable struct {
	slots atomic.Pointer[[]*arena]
}

func newArenaTable() *arenaTable {
	t := &arenaTable{}
	t.slots.Store(new([]*arena))
	return t
}

// at returns the arena in slot; the caller holds the shard lock of an
// entry that points into it.
func (t *arenaTable) at(slot uint32) *arena { return (*t.slots.Load())[slot] }

// alloc maps an arena of size bytes for generation seq into a free slot.
// Caller holds logMu.
func (t *arenaTable) alloc(seq uint32, size int) *arena {
	old := *t.slots.Load()
	slots := append([]*arena(nil), old...)
	a := &arena{buf: mapArena(size), seq: seq, slot: uint32(len(slots))}
	for i, b := range slots {
		if b == nil {
			a.slot = uint32(i)
			break
		}
	}
	if int(a.slot) == len(slots) {
		slots = append(slots, a)
	} else {
		slots[a.slot] = a
	}
	t.slots.Store(&slots)
	return a
}

// free unmaps a, whose keys no entry points to any more. Caller holds
// logMu.
func (t *arenaTable) free(a *arena) {
	slots := append([]*arena(nil), *t.slots.Load()...)
	slots[a.slot] = nil
	t.slots.Store(&slots)
	unmapArena(a.buf)
	a.buf, a.n = nil, 0
}

// freeAll unmaps every arena. It runs from Close, with the shard maps
// cleared, or as the cleanup of a store nothing references any more.
func (t *arenaTable) freeAll() {
	for _, a := range *t.slots.Load() {
		if a != nil {
			t.free(a)
		}
	}
}
