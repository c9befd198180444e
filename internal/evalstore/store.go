package evalstore

import (
	"cmp"
	"log/slog"
	"sync"
	"sync/atomic"

	"digamma/internal/cost"
	"digamma/internal/faults"
)

// shardCount spreads the in-memory tier over independently locked maps so
// a search's parallel evaluation workers rarely contend. Power of two;
// probes select a shard off the key's high word.
const shardCount = 64

type shard struct {
	mu sync.RWMutex
	m  map[Key]*cost.Result
}

// Options configures Open.
type Options struct {
	// Dir, when non-empty, backs the store with append-only segment files
	// under this directory (created if missing), which hold both the
	// analyses and the warm-start result index. Empty = memory-only.
	Dir string

	// Fingerprint versions every persisted entry; segments recorded under
	// a different fingerprint are discarded at open. Defaults to
	// cost.Fingerprint — override only in tests.
	Fingerprint string

	// MaxSegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB). Rotation is atomic: the next segment is
	// staged under a temp name, header-stamped and fsynced before the
	// rename makes it live.
	MaxSegmentBytes int64

	// Faults, when armed, injects failures at the store's write points
	// (PointAppend, PointRotate, PointIndex) for the chaos suite. A
	// failed disk write never fails the caller: the store logs, drops the
	// disk tier and carries on memory-only.
	Faults *faults.Injector

	// Log receives disk-tier warnings (slog.Default when nil).
	Log *slog.Logger

	// resultLimit caps the warm-start index (defaultResultLimit when 0);
	// tests shrink it to reach eviction.
	resultLimit int
}

// Store is the shared analysis tier. All methods are safe for concurrent
// use by any number of searches.
type Store struct {
	fingerprint string
	shards      [shardCount]shard

	hits    atomic.Uint64
	misses  atomic.Uint64
	inserts atomic.Uint64

	log    *slog.Logger
	faults *faults.Injector

	diskMu sync.Mutex
	disk   *diskTier // nil when memory-only or after a write failure

	results resultIndex
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	Hits     uint64 // probes answered from the shared tier
	Misses   uint64 // probes that fell through to the cost model
	Inserts  uint64 // fresh analyses published (also the entry count, memory-only)
	Entries  int    // resident entries
	Loaded   int    // entries recovered from disk segments at open
	Segments int    // on-disk segment files (0 when memory-only)
	Results  int    // warm-start result records
}

// HitRate returns hits/(hits+misses), 0 when unprobed.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewMemory returns a process-lifetime, memory-only store.
func NewMemory() *Store {
	s, _ := Open(Options{})
	return s
}

// Open builds a store, replaying any prior segments under o.Dir into the
// memory tier (the warm tier survives restarts). Segments written under a
// different cost-model fingerprint are deleted — the model changed, so
// their entries are meaningless now.
func Open(o Options) (*Store, error) {
	if o.Fingerprint == "" {
		o.Fingerprint = cost.Fingerprint
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	s := &Store{fingerprint: o.Fingerprint, log: o.Log, faults: o.Faults}
	for i := range s.shards {
		s.shards[i].m = make(map[Key]*cost.Result)
	}
	s.results.limit = cmp.Or(o.resultLimit, defaultResultLimit)
	if o.Dir == "" {
		return s, nil
	}
	d, err := openDisk(o, s)
	if err != nil {
		return nil, err
	}
	s.disk = d
	return s, nil
}

// Fingerprint reports the cost-model version this store's keys are
// derived under.
func (s *Store) Fingerprint() string { return s.fingerprint }

func (s *Store) shardFor(k Key) *shard { return &s.shards[k.Hi&(shardCount-1)] }

// Get returns the stored analysis for k. The result is shared and
// immutable; callers that need a private CacheKey must clone.
func (s *Store) Get(k Key) (*cost.Result, bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	r, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return r, ok
}

// Put publishes a freshly computed analysis under k. The store keeps a
// private clone (r is typically slab-allocated by a search that will
// recycle it) with a zeroed CacheKey, and appends it to the active disk
// segment when one is attached. Re-inserts of a resident key are no-ops:
// analyses are pure, so any two values for one key are identical.
func (s *Store) Put(k Key, r *cost.Result) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	if _, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return
	}
	c := r.Clone()
	c.CacheKey = 0
	sh.m[k] = c
	sh.mu.Unlock()
	s.inserts.Add(1)
	s.appendDisk(k, c)
}

// load installs a disk-recovered entry without counting it as an insert
// or re-appending it.
func (s *Store) load(k Key, r *cost.Result) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	if _, ok := sh.m[k]; !ok {
		sh.m[k] = r
	}
	sh.mu.Unlock()
}

// appendDisk forwards one entry to the disk tier; a write failure demotes
// the store to memory-only rather than surfacing to the search.
func (s *Store) appendDisk(k Key, r *cost.Result) {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.disk == nil {
		return
	}
	if err := s.disk.append(k, r); err != nil {
		s.detachDisk(err)
	}
}

// detachDisk demotes the store to memory-only after a failed write.
// Caller holds diskMu.
func (s *Store) detachDisk(err error) {
	s.log.Warn("evalstore: disk write failed; continuing memory-only", "err", err)
	s.disk.close()
	s.disk = nil
}

// Sync flushes buffered segment writes to the OS (no fsync: the disk
// tier is a cache, not a ledger; a lost tail only costs recomputation).
func (s *Store) Sync() error {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.disk.flush()
}

// Close flushes and detaches the disk tier. The memory tier stays usable.
func (s *Store) Close() error {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.disk == nil {
		return nil
	}
	err := s.disk.close()
	s.disk = nil
	return err
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Inserts: s.inserts.Load(),
		Results: s.results.len(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Entries += len(sh.m)
		sh.mu.RUnlock()
	}
	s.diskMu.Lock()
	if s.disk != nil {
		st.Loaded = s.disk.loaded
		st.Segments = s.disk.segments
	}
	s.diskMu.Unlock()
	return st
}
