// Intrusive is a set-associative cache of fixed-size values that carry
// their own key: instead of wrapping every insert in a freshly allocated
// (key, value) entry, it copies the value into a slot carved from a slab
// and reads the key back out of the value itself. On the search hot path
// an insert happens for every cache miss — thousands per search — so a
// per-insert allocation would be one of the largest allocation sources of
// the whole engine; a slab allocation covers slabLen inserts.
//
// The contract: the cached value must carry its own key, read by the
// extractor. Each slot also keeps an atomic copy of its key next to the
// pointer — a 4-way set is exactly one cache line — so probes filter the
// ways without dereferencing scattered heap values. The slot key is only
// a hint: a hit is confirmed against the key embedded in the value
// (keyOf), so a probe that races an insert can never return a torn (key,
// value) pair — at worst it misses and the caller recomputes, which is
// always sound here because cached computations are deterministic.
package evalcache

import (
	"sync"
	"sync/atomic"
)

// stripes is the hit/miss counter fan-out. Batch evaluation hammers the
// counters from every worker; striping across padded cells keeps them off
// one contended cache line. Power of two.
const stripes = 8

// striped is a padded, striped event counter: adds pick a cell from the
// caller's key, reads sum all cells.
type striped struct {
	cells [stripes]struct {
		n atomic.Uint64
		_ [56]byte // pad to a cache line so stripes never false-share
	}
}

// add counts one event on the stripe selected by sel.
func (s *striped) add(sel uint64) { s.cells[sel&(stripes-1)].n.Add(1) }

// load sums the stripes.
func (s *striped) load() uint64 {
	var n uint64
	for i := range s.cells {
		n += s.cells[i].n.Load()
	}
	return n
}

// reset zeroes the stripes.
func (s *striped) reset() {
	for i := range s.cells {
		s.cells[i].n.Store(0)
	}
}

// islot is one intrusive slot: the key hint adjacent to the value
// pointer. 16 bytes, so one ways-wide set spans a single cache line.
type islot[V any] struct {
	key atomic.Uint64
	val atomic.Pointer[V]
}

// Intrusive maps a 64-bit key to a cached V that carries its own key
// (read through keyOf). Lock-free: values are immutable once Put, and
// recomputing a key must be deterministic.
type Intrusive[V any] struct {
	slots   []islot[V] // sets × ways
	setMask uint64
	keyOf   func(*V) uint64
	slabs   sync.Pool // of *slab[V]: per-P, so concurrent Puts never share one

	hits      striped
	misses    striped
	evictions atomic.Uint64
}

// slab is a run of value slots Put copies into; an evicted value pins
// its slab until every slab-mate is evicted too.
type slab[V any] struct{ free []V }

// slabLen is how many inserts one slab allocation covers.
const slabLen = 64

// NewIntrusive builds an intrusive cache bounded to roughly capacity
// entries (DefaultCapacity when capacity <= 0). keyOf must return the key
// the value was published under; it is called once to confirm a probable
// hit.
func NewIntrusive[V any](capacity int, keyOf func(*V) uint64) *Intrusive[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	sets := 1
	for sets*ways < capacity {
		sets <<= 1
	}
	return &Intrusive[V]{
		slots:   make([]islot[V], sets*ways),
		setMask: uint64(sets - 1),
		keyOf:   keyOf,
	}
}

// Get returns the cached value for key, counting the lookup as a hit or a
// miss. The counter stripe is picked from the key's high bits (the set
// index uses the low bits, so the two stay uncorrelated).
func (c *Intrusive[V]) Get(key uint64) (*V, bool) {
	base := int(key&c.setMask) * ways
	for i := base; i < base+ways; i++ {
		if c.slots[i].key.Load() != key {
			continue // hint filter: no value dereference for foreign ways
		}
		// Confirm against the value's own key: the hint may be ahead of
		// the pointer mid-insert, and a stale pairing must read as a miss.
		if v := c.slots[i].val.Load(); v != nil && c.keyOf(v) == key {
			c.hits.add(key >> 57)
			return v, true
		}
	}
	c.misses.add(key >> 57)
	return nil, false
}

// Put stores a copy of v under keyOf(&v). A full set evicts one resident
// entry at a key-derived slot. The value pointer is published after the
// key hint; Get's confirm step makes the window harmless.
func (c *Intrusive[V]) Put(val V) {
	v := c.alloc()
	*v = val
	key := c.keyOf(v)
	base := int(key&c.setMask) * ways
	victim := -1
	for i := base; i < base+ways; i++ {
		k := c.slots[i].key.Load()
		if k == key {
			c.slots[i].val.Store(v)
			return
		}
		if victim < 0 && c.slots[i].val.Load() == nil {
			victim = i
		}
	}
	if victim < 0 {
		victim = base + int((key>>32)&(ways-1))
		c.evictions.Add(1)
	}
	c.slots[victim].key.Store(key)
	c.slots[victim].val.Store(v)
}

// alloc returns a fresh value slot from the calling P's slab.
func (c *Intrusive[V]) alloc() *V {
	sl, _ := c.slabs.Get().(*slab[V])
	if sl == nil {
		sl = new(slab[V])
	}
	if len(sl.free) == 0 {
		sl.free = make([]V, slabLen)
	}
	v := &sl.free[0]
	sl.free = sl.free[1:]
	c.slabs.Put(sl)
	return v
}

// Len returns the current number of cached entries.
func (c *Intrusive[V]) Len() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].val.Load() != nil {
			n++
		}
	}
	return n
}

// Reset drops every entry and zeroes the counters.
func (c *Intrusive[V]) Reset() {
	for i := range c.slots {
		c.slots[i].val.Store(nil)
		c.slots[i].key.Store(0)
	}
	c.hits.reset()
	c.misses.reset()
	c.evictions.Store(0)
}

// Lookups returns the hit and miss counters alone: unlike Stats it skips
// the O(capacity) entry count, so it is cheap enough to read every
// generation of a search.
func (c *Intrusive[V]) Lookups() (hits, misses uint64) {
	return c.hits.load(), c.misses.load()
}

// Stats snapshots the counters.
func (c *Intrusive[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.load(),
		Misses:    c.misses.load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
