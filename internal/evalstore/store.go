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

// defaultMaxBytes is the resident budget when Options.MaxBytes is 0: the
// smallest budget on a curve measured on the serve-neardup benchmark
// workload (traced 20 s runs, seeds 3 and 5, 2-core VM) whose shared-tier
// hit ratio stays within 0.03 of an unbounded store's, 0.301/0.303. With
// promotion on hit, 16 MiB read 0.181/0.182, 32 MiB 0.228/0.230 and 64 MiB
// 0.273/0.274 (without it, 64 MiB read 0.255/0.256); p50 latency did not
// move with the budget (2.6–3.6 ms at every point, unbounded included).
const defaultMaxBytes = 64 << 20

// entry is one resident analysis and the generation it was put or loaded
// in; dropping that generation deletes it.
type entry struct {
	r   *cost.Result
	gen uint32
}

type shard struct {
	mu sync.RWMutex
	m  map[Key]entry
}

// generation is one slice of the tier's log: the entries put or loaded
// while it was active and, with a disk attached, the segment file of the
// same sequence number that holds them.
type generation struct {
	seq   uint32
	bytes int64 // encoded frames appended to it
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

	// MaxBytes bounds the resident tier: the encoded bytes of every
	// generation it holds. Past it, the oldest generation is dropped
	// whole — its entries and its segment file — and Open keeps only the
	// newest segments that fit. 0 = defaultMaxBytes (64 MiB).
	MaxBytes int64

	// MaxSegmentBytes advances the generation, and rotates the active
	// segment, once this many encoded bytes were appended to it (default
	// 8 MiB, capped at MaxBytes/4 so the budget spans several
	// generations). Rotation is atomic: the next segment is staged under a
	// temp name, header-stamped and fsynced before the rename makes it
	// live.
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

	// promoteBelow is the generation a hit promotes from: an entry hit
	// while recorded under an older one moves to the active generation.
	promoteBelow atomic.Uint32

	log    *slog.Logger
	faults *faults.Injector

	// logMu orders every write to the tier's log: the generations, the
	// byte and eviction counts and the disk tier. It is taken before any
	// shard lock.
	logMu    sync.Mutex
	gens     []generation // resident, oldest first; the last is active
	bytes    int64        // sum of gens[i].bytes
	maxBytes int64
	genBytes int64
	evicted  uint64
	loaded   int
	disk     *diskTier // nil when memory-only or after a write failure

	results resultIndex
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	Hits     uint64 // probes answered from the shared tier
	Misses   uint64 // probes that fell through to the cost model
	Inserts  uint64 // fresh analyses published
	Entries  int    // resident entries
	Loaded   int    // 'E' frames replayed at open (a promoted key once per copy)
	Evicted  uint64 // entries dropped with their generation, or cut at open
	Bytes    int64  // resident encoded bytes (bounded by Options.MaxBytes)
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

// NewMemory returns a process-lifetime, memory-only store under the
// default budget.
func NewMemory() *Store {
	s, _ := Open(Options{})
	return s
}

// Open builds a store, replaying the newest segments under o.Dir that
// fit the budget into the memory tier (the warm tier survives restarts).
// Older segments are deleted undecoded; segments written under a
// different cost-model fingerprint are deleted too — the model changed,
// so their entries are meaningless now.
func Open(o Options) (*Store, error) {
	if o.Fingerprint == "" {
		o.Fingerprint = cost.Fingerprint
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	o.MaxBytes = cmp.Or(max(o.MaxBytes, 0), defaultMaxBytes)
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = min(defaultSegMax, o.MaxBytes/4)
	}
	s := &Store{
		fingerprint: o.Fingerprint, log: o.Log, faults: o.Faults,
		maxBytes: o.MaxBytes, genBytes: o.MaxSegmentBytes,
	}
	for i := range s.shards {
		s.shards[i].m = make(map[Key]entry)
	}
	s.results.limit = cmp.Or(o.resultLimit, defaultResultLimit)
	if o.Dir == "" {
		s.gens = []generation{{seq: 1}}
		s.setPromote()
		return s, nil
	}
	if err := s.openDisk(o); err != nil {
		return nil, err
	}
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
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	if e.gen < s.promoteBelow.Load() {
		s.promote(k)
	}
	return e.r, true
}

// promote re-appends a hit entry from a generation due to be dropped
// soon (see setPromote) into the active one, so analyses that keep being
// reused outlive the drop of the generation they were first put in. Each
// promotion costs one more encoded copy in the active generation (and
// segment), and a later hit finds the entry past the line.
func (s *Store) promote(k Key) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.rotateIfFull()
	sh := s.shardFor(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if ok = ok && e.gen < s.promoteBelow.Load(); ok {
		e.gen = s.gens[len(s.gens)-1].seq
		sh.m[k] = e
	}
	sh.mu.Unlock()
	if ok {
		s.appendEntry(k, e.r)
	}
}

// Put publishes a freshly computed analysis under k into the active
// generation. The store keeps a private clone (r is typically
// slab-allocated by a search that will recycle it) with a zeroed
// CacheKey, and appends it to the active disk segment when one is
// attached. Re-inserts of a resident key are no-ops: analyses are pure,
// so any two values for one key are identical.
func (s *Store) Put(k Key, r *cost.Result) {
	c := r.Clone()
	c.CacheKey = 0
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.rotateIfFull()
	sh := s.shardFor(k)
	sh.mu.Lock()
	_, resident := sh.m[k]
	if !resident {
		sh.m[k] = entry{r: c, gen: s.gens[len(s.gens)-1].seq}
	}
	sh.mu.Unlock()
	if resident {
		return
	}
	s.inserts.Add(1)
	s.appendEntry(k, c)
}

// appendEntry charges r's frame to the active generation and appends it
// to the active segment when a disk is attached. Caller holds logMu.
func (s *Store) appendEntry(k Key, r *cost.Result) {
	if s.disk != nil {
		if err := s.disk.append(k, r); err != nil {
			s.detachDisk(err)
		}
	}
	s.grow(entryFrameLen(r))
}

// load installs a disk-recovered entry under its segment's generation
// without counting it as an insert or re-appending it. Segments replay
// oldest first, so a key found in two of them keeps the newer generation.
func (s *Store) load(k Key, r *cost.Result, gen uint32) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.m[k] = entry{r: r, gen: gen}
	sh.mu.Unlock()
}

// rotateIfFull advances to the next generation once the active one holds
// genBytes. Caller holds logMu.
func (s *Store) rotateIfFull() {
	if g := s.gens[len(s.gens)-1]; g.bytes >= s.genBytes {
		if err := s.advance(g.seq + 1); err != nil {
			s.detachDisk(err)
		}
	}
}

// advance makes generation seq the active one. With a disk attached it
// stages segment seq and re-appends the live warm-start index into it,
// so dropping any older segment never loses a record. Caller holds logMu
// (or owns the store during Open).
func (s *Store) advance(seq uint32) error {
	s.gens = append(s.gens, generation{seq: seq})
	s.setPromote()
	if s.disk == nil {
		return nil
	}
	n, err := s.disk.rotate(seq, s.results.snapshot())
	if err != nil {
		return err
	}
	s.grow(n)
	return nil
}

// grow charges n freshly appended bytes to the active generation, then
// drops the oldest generations while the tier is over budget. The active
// generation is never dropped. Caller holds logMu.
func (s *Store) grow(n int64) {
	s.gens[len(s.gens)-1].bytes += n
	s.bytes += n
	for s.bytes > s.maxBytes && len(s.gens) > 1 {
		s.dropOldest()
	}
}

// dropOldest evicts the oldest generation whole: every resident entry
// still recorded under it (a key evicted earlier and put again carries a
// newer generation and stays) and its segment file. The shard maps are
// scanned rather than a per-generation key list kept: a drop is rare (one
// per MaxSegmentBytes of inserts) and the scan costs no memory per entry.
// Caller holds logMu.
func (s *Store) dropOldest() {
	g := s.gens[0]
	s.gens = s.gens[1:]
	s.bytes -= g.bytes
	s.setPromote()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.gen == g.seq {
				delete(sh.m, k)
				s.evicted++
			}
		}
		sh.mu.Unlock()
	}
	if s.disk != nil {
		if err := s.disk.remove(g.seq); err != nil {
			s.detachDisk(err)
		}
	}
}

// setPromote moves the promotion line past the generations the next
// MaxBytes/2 of appends would drop: the older half of a full tier, and
// none while the tier holds less than half its budget, where a copy would
// only cost bytes. Caller holds logMu.
func (s *Store) setPromote() {
	line := s.gens[0].seq
	drop := s.bytes - s.maxBytes/2
	for _, g := range s.gens[:len(s.gens)-1] {
		if drop <= 0 {
			break
		}
		drop -= g.bytes
		line = g.seq + 1
	}
	s.promoteBelow.Store(line)
}

// detachDisk demotes the store to memory-only after a failed write.
// Caller holds logMu.
func (s *Store) detachDisk(err error) {
	s.log.Warn("evalstore: disk write failed; continuing memory-only", "err", err)
	s.disk.close()
	s.disk = nil
}

// Sync flushes buffered segment writes to the OS (no fsync: the disk
// tier is a cache, not a ledger; a lost tail only costs recomputation).
func (s *Store) Sync() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.disk.flush()
}

// Close flushes and detaches the disk tier. The memory tier stays usable.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
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
	s.logMu.Lock()
	st.Loaded, st.Evicted, st.Bytes = s.loaded, s.evicted, s.bytes
	if s.disk != nil {
		st.Segments = len(s.gens)
	}
	s.logMu.Unlock()
	return st
}
