package evalstore

import (
	"cmp"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// hit ratio is at least the 0.274 the tier read at 64 MiB when an entry
// was a whole cost.Result. 16 MiB read 0.236/0.238, 32 MiB 0.275/0.277
// and 64 MiB 0.301/0.303 (every entry of the run resident); promotion on
// hit added 0.015 at 32 MiB and nothing at 64, so the tier has none.
const defaultMaxBytes = 32 << 20

// entry locates one resident analysis: its 'E' frame at off in the
// arena of table slot slot, which belongs to the generation it was put
// or loaded in; dropping that generation deletes it. Pointer-free, so
// the collector does not scan the shard maps.
type entry struct {
	slot uint32
	off  uint32
}

type shard struct {
	mu sync.RWMutex
	m  map[Key]entry
}

// generation is one slice of the tier's log: the entries put or loaded
// while it was active, held in its arena, and, with a disk attached, the
// segment file of the same sequence number that holds them too.
type generation struct {
	seq   uint32
	bytes int64  // encoded frames appended to it
	a     *arena // nil until its first entry
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
	// newest segments that fit. 0 = defaultMaxBytes (32 MiB).
	MaxBytes int64

	// MaxSegmentBytes advances the generation, and rotates the active
	// segment, once this many encoded bytes were appended to it (default
	// 8 MiB, capped at MaxBytes/4 so the budget spans several
	// generations; at most 2 GiB). Rotation is atomic: the next segment
	// is staged under a temp name, header-stamped and fsynced before the
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

	// arenas holds every generation's frames; entries name their arena by
	// slot.
	arenas *arenaTable

	// logMu orders every write to the tier's log: the generations and
	// their arenas, the byte and eviction counts and the disk tier. Every
	// write to a shard map holds it too, taken before the shard lock, so a
	// holder reads entries without a race to update one.
	logMu    sync.Mutex
	gens     []generation // resident, oldest first; the last is active
	bytes    int64        // sum of gens[i].bytes
	maxBytes int64
	genBytes int64
	evicted  uint64
	loaded   int
	disk     *diskTier // nil when memory-only or after a write failure
	closed   bool      // Close freed the arenas: the tier holds nothing more

	// dropKeys is unindex's scratch: a dropped arena's keys by shard.
	dropKeys [shardCount][]Key

	// Time spent under logMu staging generations and dropping old ones
	// (see Stats.RotateNanos).
	rotations   uint64
	rotateNanos uint64
	rotateMax   uint64

	results resultIndex
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	Hits     uint64 // probes answered from the shared tier
	Misses   uint64 // probes that fell through to the cost model
	Inserts  uint64 // fresh analyses published
	Entries  int    // resident entries
	Loaded   int    // 'E' frames replayed at open (a key put again once per copy)
	Evicted  uint64 // entries dropped with their generation, or cut at open
	Bytes    int64  // resident encoded bytes (bounded by Options.MaxBytes)
	Segments int    // on-disk segment files (0 when memory-only)
	Results  int    // warm-start result records

	// Rotations counts generations staged (segment rotations with a disk,
	// the first segment at open included). RotateNanos sums the time
	// spent under the log mutex — which the Put that triggered it
	// holds — staging generations (with a disk: flushing,
	// fsyncing and closing the old segment, creating the new one and
	// re-appending the warm-start index) and dropping old ones (the walk
	// over the dropped arena's frames, its unmapping and the segment
	// unlink); RotateMaxNanos is the longest single staging or drop.
	Rotations      uint64
	RotateNanos    uint64
	RotateMaxNanos uint64
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
	o.MaxSegmentBytes = min(o.MaxSegmentBytes, maxArenaBytes-int64(maxEntryFrame))
	s := &Store{
		fingerprint: o.Fingerprint, log: o.Log, faults: o.Faults,
		maxBytes: o.MaxBytes, genBytes: o.MaxSegmentBytes,
		arenas: newArenaTable(),
	}
	// A store dropped without Close still returns its mappings.
	runtime.AddCleanup(s, (*arenaTable).freeAll, s.arenas)
	for i := range s.shards {
		s.shards[i].m = make(map[Key]entry)
	}
	s.results.limit = cmp.Or(o.resultLimit, defaultResultLimit)
	if o.Dir == "" {
		s.gens = []generation{{seq: 1}}
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

// Get returns the stored score for k, decoded from its frame by value
// with its Key set to k.Lo — so a search's L1, keyed on the same content
// key's low word, can hold it as it is. A frame that does not decode is a
// miss, and its entry is dropped.
func (s *Store) Get(k Key) (cost.Score, bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	e, ok := sh.m[k]
	var sc cost.Score
	decoded := false
	if ok {
		sc, decoded = s.arenas.at(e.slot).decode(e.off, k.Lo)
	}
	sh.mu.RUnlock()
	if !decoded {
		if ok {
			s.forget(k, e)
		}
		s.misses.Add(1)
		return cost.Score{}, false
	}
	s.hits.Add(1)
	return sc, true
}

// forget removes k's entry if it still is e: a frame that would not
// decode. Its bytes stay charged to their generation until it drops.
func (s *Store) forget(k Key, e entry) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	sh := s.shardFor(k)
	sh.mu.Lock()
	if cur, ok := sh.m[k]; ok && cur == e {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
}

// Put publishes a freshly computed score under k into the active
// generation: it encodes sc's frame once into the active arena and
// appends those bytes to the active disk segment when one is attached.
// Re-inserts of a resident key are no-ops: analyses are pure, so any two
// scores for one key are identical.
func (s *Store) Put(k Key, sc cost.Score) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return
	}
	s.rotateIfFull()
	sh := s.shardFor(k)
	sh.mu.RLock()
	_, resident := sh.m[k]
	sh.mu.RUnlock()
	if resident {
		return
	}
	a := s.activeArena()
	off := a.putEntry(k, sc)
	sh.mu.Lock()
	sh.m[k] = entry{slot: a.slot, off: off}
	sh.mu.Unlock()
	s.inserts.Add(1)
	s.commit(a, off)
}

// activeArena returns the active generation's arena, mapping it on the
// generation's first entry. Caller holds logMu.
func (s *Store) activeArena() *arena {
	g := &s.gens[len(s.gens)-1]
	if g.a == nil {
		g.a = s.arenas.alloc(g.seq, int(s.genBytes)+maxEntryFrame)
	}
	return g.a
}

// commit charges the frame just written at off in the active arena to
// the active generation, appending the same bytes to the active segment
// when a disk is attached. Caller holds logMu.
func (s *Store) commit(a *arena, off uint32) {
	frame := a.frame(off)
	if s.disk != nil {
		if err := s.disk.append(frame); err != nil {
			s.detachDisk(err)
		}
	}
	s.grow(int64(len(frame)))
}

// load indexes a disk-recovered entry, the frame at off in the arena of
// its segment, without counting it as an insert or re-appending it.
// Segments replay oldest first, so a key found in two of them keeps the
// newer generation.
func (s *Store) load(k Key, a *arena, off int) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.m[k] = entry{slot: a.slot, off: uint32(off)}
	sh.mu.Unlock()
}

// rotateIfFull advances to the next generation once the active one holds
// genBytes, or (a guard: arenas are sized for that) once its arena could
// not take one more entry. Caller holds logMu.
func (s *Store) rotateIfFull() {
	if s.closed {
		return
	}
	if g := s.gens[len(s.gens)-1]; g.bytes >= s.genBytes || g.a != nil && !g.a.fits(maxEntryFrame) {
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
	start := time.Now()
	s.rotations++
	s.gens = append(s.gens, generation{seq: seq})
	if s.disk == nil {
		s.timed(start)
		return nil
	}
	n, err := s.disk.rotate(seq, s.results.snapshot())
	s.timed(start)
	if err != nil {
		return err
	}
	s.grow(n)
	return nil
}

// timed charges the staging or drop that began at start to the rotation
// counters. Caller holds logMu.
func (s *Store) timed(start time.Time) {
	ns := uint64(time.Since(start))
	s.rotateNanos += ns
	s.rotateMax = max(s.rotateMax, ns)
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
// still recorded under it (a key evicted earlier and put again points
// into a newer arena and stays) and its segment file.
// The keys come from walking the arena's own frames, so a drop touches
// only the entries it held; once they are gone the arena is unmapped (see
// arena). Caller holds logMu.
func (s *Store) dropOldest() {
	defer s.timed(time.Now())
	g := s.gens[0]
	s.gens = s.gens[1:]
	s.bytes -= g.bytes
	if g.a != nil {
		s.evicted += uint64(s.unindex(g.a))
		s.arenas.free(g.a)
	}
	if s.disk != nil {
		if err := s.disk.remove(g.seq); err != nil {
			s.detachDisk(err)
		}
	}
}

// unindex deletes every entry still pointing into a and returns how many
// there were. The arena's keys are gathered per shard first, so each
// shard is locked once. Caller holds logMu (or owns the store during
// Open).
func (s *Store) unindex(a *arena) int {
	for i := range s.dropKeys {
		s.dropKeys[i] = s.dropKeys[i][:0]
	}
	a.eachEntry(func(k Key) {
		i := k.Hi & (shardCount - 1)
		s.dropKeys[i] = append(s.dropKeys[i], k)
	})
	n := 0
	for i, keys := range s.dropKeys {
		if len(keys) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, k := range keys {
			if e, ok := sh.m[k]; ok && e.slot == a.slot {
				delete(sh.m, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
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

// Close flushes and detaches the disk tier and frees the memory tier:
// every later Get misses and every later Put is dropped. The warm-start
// index stays readable.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if !s.closed {
		s.closed = true
		for i := range s.shards { // no Get decodes past its shard's clear
			sh := &s.shards[i]
			sh.mu.Lock()
			clear(sh.m)
			sh.mu.Unlock()
		}
		s.arenas.freeAll()
		s.gens, s.bytes, s.dropKeys = nil, 0, [shardCount][]Key{}
	}
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
	st.Rotations, st.RotateNanos, st.RotateMaxNanos = s.rotations, s.rotateNanos, s.rotateMax
	if s.disk != nil {
		st.Segments = len(s.gens)
	}
	s.logMu.Unlock()
	return st
}
