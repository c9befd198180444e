// Package evalcache memoizes per-layer performance-model results for the
// co-optimization hot path. DiGamma's fitness decomposes additively over
// layers (the property its greedy block crossover exploits), so per-layer
// mapping blocks recur massively across generations — elites are carried
// unchanged, crossover moves whole blocks between genomes, and mutateMap
// touches only a few layers per child. Caching the analysis of one
// (hardware, layer, mapping-block) triple therefore removes the majority of
// cost.Analyze calls from a genetic search.
//
// The cache (see Intrusive) is a lock-free, set-associative table rather
// than a mutex-and-map design: lookups run several times per design-point
// evaluation, and a fixed array of atomically-published slots is both
// faster than a locked hash map and naturally bounded — an insert into a
// full set simply overwrites a victim, which is safe because every entry
// can be recomputed deterministically. Hit/miss/eviction counters are
// exposed so tests and reports can verify the cache's effectiveness.
package evalcache

// ways is the set associativity: a key maps to one set of this many slots.
const ways = 4

// DefaultCapacity bounds the total slot count when a constructor is given
// a non-positive capacity. An entry is a 16-byte slot plus the ~104-byte
// score it points at, so the default tops out around 4 MB fully
// populated.
const DefaultCapacity = 1 << 15

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
