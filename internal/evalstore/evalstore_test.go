package evalstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"digamma/internal/cost"
	"digamma/internal/faults"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// mappingFor builds a legal-ish mapping at the given clustering depth.
func mappingFor(levels int) mapping.Mapping {
	m := mapping.Mapping{Levels: make([]mapping.Level, levels)}
	for i := range m.Levels {
		m.Levels[i] = mapping.Level{Spatial: workload.K, Order: mapping.CanonicalOrder()}
		for d := range m.Levels[i].Tiles {
			m.Levels[i].Tiles[d] = 2
		}
	}
	return m
}

// testScore builds a 2- to 4-level Score with bit-pattern-hostile floats
// (negative zero, subnormals, huge magnitudes) so round-trip tests catch
// any formatting-based codec regression. Cycles encodes i (see
// residentKeys).
func testScore(i int) cost.Score {
	return testScoreLevels(i, 2+i%3)
}

// testScoreLevels is testScore at a given depth.
func testScoreLevels(i, levels int) cost.Score {
	f := float64(i)
	s := cost.Score{
		Cycles:      1e15 + f,
		MappedMACs:  5e-324, // smallest subnormal
		DRAMWords:   1.0/3.0 + f,
		NoCWords:    math.Nextafter(1, 2),
		L1Words:     f * 1e-7,
		L2Words:     math.MaxFloat64 / (f + 2),
		Utilization: math.Copysign(0, -1),
		Levels:      levels,
	}
	for l := 0; l < levels; l++ {
		s.Buffer[l] = 1e6/float64(i+l+1) + float64(l)*0.125
	}
	return s
}

// entryFrameLen is the size of s's framed 'E' record: what the store
// charges to the active generation whether or not a disk is attached.
func entryFrameLen(s cost.Score) int64 { return int64(entryHeadLen + scoreLenFor(s.Levels)) }

func testKey(i int) Key {
	return Key{Hi: uint64(i)*0x9e3779b97f4a7c15 + 1, Lo: uint64(i) ^ 0xdeadbeef}
}

// sameScore reports whether two scores hold bit-identical analysis
// fields (Key, which a Get sets from the probe, aside).
func sameScore(a, b cost.Score) bool {
	fa := append([]float64{a.Cycles, a.MappedMACs, a.DRAMWords, a.NoCWords, a.L1Words, a.L2Words, a.Utilization}, a.Buffer[:]...)
	fb := append([]float64{b.Cycles, b.MappedMACs, b.DRAMWords, b.NoCWords, b.L1Words, b.L2Words, b.Utilization}, b.Buffer[:]...)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Levels == b.Levels
}

// TestCodecRoundTripExact: every float comes back with the identical bit
// pattern at every depth a score holds — the disk tier's contribution to
// the bit-identity contract — and the key comes from the probe.
func TestCodecRoundTripExact(t *testing.T) {
	for levels := 0; levels <= cost.MaxLevels; levels++ {
		for i := 0; i < 20; i++ {
			sc := testScoreLevels(i, levels)
			enc := appendScore(nil, sc)
			if len(enc) != scoreLenFor(levels) {
				t.Fatalf("%d levels: encoding is %d bytes, scoreLenFor says %d", levels, len(enc), scoreLenFor(levels))
			}
			got, err := decodeScore(enc, 77)
			if err != nil {
				t.Fatalf("%d levels, score %d: %v", levels, i, err)
			}
			if !sameScore(sc, got) || got.Key != 77 {
				t.Fatalf("%d levels, score %d did not round-trip exactly", levels, i)
			}
		}
	}
	// Truncated and oversized payloads, and a depth past what a score
	// holds, must error, not panic.
	enc := appendScore(nil, testScore(1))
	for _, cut := range []int{0, 1, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeScore(enc[:cut], 0); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeScore(append(enc, 0), 0); err == nil {
		t.Error("trailing bytes accepted")
	}
	deep := appendScore(nil, testScoreLevels(1, cost.MaxLevels))
	deep = binary.LittleEndian.AppendUint64(deep, 0)
	binary.LittleEndian.PutUint64(deep[8*7:], cost.MaxLevels+1)
	if _, err := decodeScore(deep, 0); err == nil {
		t.Errorf("a %d-level score decoded", cost.MaxLevels+1)
	}
}

// TestMemoryStoreBasics: hit/miss accounting, the served copy's Key and
// idempotent re-inserts.
func TestMemoryStoreBasics(t *testing.T) {
	s := NewMemory()
	k := testKey(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	r := testScore(1)
	r.Key = 42
	s.Put(k, r)
	got, ok := s.Get(k)
	if !ok || !sameScore(got, r) {
		t.Fatal("miss after Put")
	}
	if got.Key != k.Lo {
		t.Errorf("stored Key = %d, want the key's low word %d (the L1 key)", got.Key, k.Lo)
	}
	s.Put(k, testScore(2)) // no-op: resident key
	if again, _ := s.Get(k); !sameScore(got, again) {
		t.Error("re-insert replaced a resident entry")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.5 || hr >= 0.7 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
}

// TestPersistenceAcrossReopen: entries and the result index survive a
// close/reopen cycle, including across segment rotations.
func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testScore(i))
	}
	s.RecordResult(ResultRecord{
		Identity: "latency|edge|analytical|co-opt",
		Layers:   []string{"aa", "bb"},
		Fanouts:  []int{8, 4},
		Maps:     []MappingRecord{{}, {}},
		Fitness:  123.5,
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.Loaded != n {
		t.Fatalf("reloaded %d entries, want %d (stats %+v)", st.Loaded, n, st)
	}
	if st.Segments < 2 {
		t.Errorf("expected rotation under a 2 KiB cap, got %d segments", st.Segments)
	}
	for i := 0; i < n; i++ {
		got, ok := re.Get(testKey(i))
		if !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
		if !sameScore(got, testScore(i)) {
			t.Fatalf("entry %d corrupted across reopen", i)
		}
	}
	if rec, overlap, ok := re.Nearest("latency|edge|analytical|co-opt", []string{"bb", "zz"}); !ok || overlap != 1 || rec.Fitness != 123.5 {
		t.Errorf("result index not restored: ok=%v overlap=%d rec=%+v", ok, overlap, rec)
	}
}

// TestReplayedCacheKey: a score replayed from a segment carries its
// key's low word as its Key, so a reopened store's hits go into a
// search's L1 as they are.
func TestReplayedCacheKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != n {
		t.Fatalf("replayed %d entries, want %d", st.Loaded, n)
	}
	for i := 0; i < n; i++ {
		k := testKey(i)
		if got, ok := re.Get(k); !ok || got.Key != k.Lo {
			t.Fatalf("entry %d: replayed Key %d (ok=%v), want %d", i, got.Key, ok, k.Lo)
		}
	}
}

// TestTornTailRecovery: a crash mid-append loses only the torn frame;
// replay truncates back to the valid prefix and appends continue.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	// Tear the tail: chop off the last 5 bytes, then append garbage that
	// cannot parse as a frame.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data[:len(data)-5]...), "garbage!"...)
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Loaded != 9 {
		t.Fatalf("recovered %d entries after torn tail, want 9", st.Loaded)
	}
	// The torn frame is gone for good — but the store must keep working.
	re.Put(testKey(100), testScore(100))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if st := re2.Stats(); st.Loaded != 10 {
		t.Errorf("post-recovery append lost: loaded %d, want 10", st.Loaded)
	}
}

// TestCorruptPayloadDropped: a CRC-valid frame boundary with a flipped
// payload byte fails the checksum and truncates the tail from there.
func TestCorruptPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff // inside the last entry's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != 4 {
		t.Errorf("loaded %d entries past a corrupt frame, want 4", st.Loaded)
	}
}

// TestFingerprintInvalidation: segments recorded under a different
// cost-model fingerprint are deleted whole at open — a model change can
// never serve stale analyses.
func TestFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: "digamma-cost/v0-test"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir}) // current cost.Fingerprint
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Loaded != 0 {
		t.Fatalf("loaded %d entries across a fingerprint change", st.Loaded)
	}
	if _, ok := re.Get(testKey(0)); ok {
		t.Fatal("stale entry served after model change")
	}
	re.Put(testKey(0), testScore(0))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the fresh segment(s) survive on disk.
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, ok := readFrame(data, len(segMagic))
		if !ok || payload[0] != recHeader {
			t.Fatalf("segment %s has no header", seg)
		}
		fpLen := binary.LittleEndian.Uint64(payload[1:9])
		if fp := string(payload[9 : 9+fpLen]); fp != cost.Fingerprint {
			t.Errorf("stale segment %s (fingerprint %q) survived", filepath.Base(seg), fp)
		}
	}
}

// TestBadMagicSegmentDeleted: an unrecognizable file matching the segment
// pattern is removed rather than wedging every future open.
func TestBadMagicSegmentDeleted(t *testing.T) {
	dir := t.TempDir()
	bogus := filepath.Join(dir, "seg-000042.seg")
	if err := os.WriteFile(bogus, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Error("bogus segment survived open")
	}
}

// TestFaultDemotesToMemory: an injected append failure drops the disk
// tier but the store keeps serving — a broken disk never fails a search.
func TestFaultDemotesToMemory(t *testing.T) {
	for _, point := range []string{PointAppend, PointRotate} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.New(1)
			s, err := Open(Options{Dir: dir, MaxSegmentBytes: 512, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			s.Put(testKey(0), testScore(0))
			inj.Set(point, faults.Knob{Every: 1})
			// Enough inserts to cross the rotation threshold under a 512 B
			// cap, whichever point is armed.
			for i := 1; i < 20; i++ {
				s.Put(testKey(i), testScore(i))
			}
			if _, fired := inj.Counts(point); fired == 0 {
				t.Fatalf("fault point %s never fired", point)
			}
			// All entries still served from memory.
			for i := 0; i < 20; i++ {
				if _, ok := s.Get(testKey(i)); !ok {
					t.Fatalf("entry %d lost after disk demotion", i)
				}
			}
			if st := s.Stats(); st.Segments != 0 {
				t.Errorf("disk tier still attached after failure: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultIndexWrite: a failing result append demotes the store to
// memory-only, as a failing entry append does. The in-memory index still
// answers Nearest, and the segment left on disk holds no torn record.
func TestFaultIndexWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	s, err := Open(Options{Dir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(0), testScore(0))
	inj.Set(PointIndex, faults.Knob{Every: 1})
	s.RecordResult(ResultRecord{Identity: "id", Layers: []string{"a"}, Maps: []MappingRecord{{}}, Fitness: 1})
	if _, fired := inj.Counts(PointIndex); fired == 0 {
		t.Fatal("index fault never fired")
	}
	if _, _, ok := s.Nearest("id", []string{"a"}); !ok {
		t.Error("in-memory result index lost on persist failure")
	}
	if st := s.Stats(); st.Segments != 0 {
		t.Errorf("disk tier still attached after failure: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	re, err := Open(Options{Dir: dir, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != 1 || st.Results != 0 {
		t.Errorf("reopen after a failed result append: %+v, want the one entry and no results", st)
	}
	if strings.Contains(logs.String(), "torn") {
		t.Errorf("reopen found a torn record:\n%s", logs.String())
	}
}

// TestResultReplayEquivalence: a reopened store rebuilds exactly the
// index the live store had, record for record, from a seeded sequence of
// fitter replacements, less-fit no-ops, ties and evictions past the
// limit, spread over rotated segments between analysis entries — and
// across generations dropped under a small byte budget, whose segments
// took the records first written to them. The reopened store holds
// exactly the entries of the segments it kept, all of them resident in
// the live store too.
func TestResultReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, MaxSegmentBytes: 8192, MaxBytes: 24 << 10, resultLimit: 12}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	identities := []string{"latency|edge", "latency|cloud"}
	randomLayers := func() []string {
		layers := make([]string, 1+rng.Intn(3))
		for j := range layers {
			layers[j] = fmt.Sprintf("l%d", rng.Intn(6))
		}
		return layers
	}
	var fitter, noop, tie, evicted int
	for i := 0; i < 400; i++ {
		rec := ResultRecord{
			Identity: identities[rng.Intn(len(identities))],
			Layers:   randomLayers(),
			Fanouts:  []int{1 + rng.Intn(8), 1 + rng.Intn(8)},
			Fitness:  float64(rng.Intn(6)),
		}
		for range rec.Layers {
			rec.Maps = append(rec.Maps, NewMappingRecord(mappingFor(1+rng.Intn(3))))
		}
		known := false
		for _, old := range s.results.recs {
			if old.Identity == rec.Identity && sameLayers(old.Layers, rec.Layers) {
				known = true
				switch {
				case rec.Fitness < old.Fitness:
					fitter++
				case rec.Fitness == old.Fitness:
					tie++
				default:
					noop++
				}
			}
		}
		if !known && len(s.results.recs) == o.resultLimit {
			evicted++
		}
		s.RecordResult(rec)
		s.Put(testKey(i), testScore(i))
		if i%5 == 0 {
			s.Put(testKey(i/2), testScore(i/2)) // re-put, resident or evicted
		}
	}
	if fitter == 0 || noop == 0 || tie == 0 || evicted == 0 {
		t.Fatalf("sequence misses a case: %d fitter, %d no-op, %d tie, %d evicting", fitter, noop, tie, evicted)
	}
	// Entries alone until every segment a record was appended to is gone:
	// only the index re-appended at each rotation can rebuild it now.
	lastRecorded := s.gens[len(s.gens)-1].seq
	for i := 400; s.gens[0].seq <= lastRecorded; i++ {
		s.Put(testKey(i), testScore(i))
	}
	st := s.Stats()
	if st.Evicted == 0 || st.Bytes > o.MaxBytes {
		t.Fatalf("no eviction under a %d-byte budget: %+v", o.MaxBytes, st)
	}
	live := append([]ResultRecord(nil), s.results.recs...)
	liveKeys := residentKeys(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Segments < 2 {
		t.Errorf("expected rotation under an 8 KiB cap, got %d segments", st.Segments)
	}
	if !reflect.DeepEqual(re.results.recs, live) {
		t.Fatalf("replayed index differs from the live one:\n got %+v\nwant %+v", re.results.recs, live)
	}
	keys := residentKeys(re)
	if onDisk := segmentKeys(t, dir); !reflect.DeepEqual(keys, onDisk) {
		t.Fatalf("reopened store holds %d keys, its segments %d", len(keys), len(onDisk))
	}
	for k, i := range keys {
		if j, ok := liveKeys[k]; !ok || j != i {
			t.Fatalf("key of entry %d resident after reopen but not in the live store", i)
		}
		if got, _ := peek(re, k); !sameScore(got.r, testScore(i)) {
			t.Fatalf("entry %d corrupted across reopen", i)
		}
	}
	for i := 0; i < 200; i++ {
		id, layers := identities[rng.Intn(len(identities))], randomLayers()
		wantRec, wantOverlap, wantOK := s.Nearest(id, layers)
		gotRec, gotOverlap, gotOK := re.Nearest(id, layers)
		if gotOK != wantOK || gotOverlap != wantOverlap || !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("Nearest(%q, %v) after reopen = %+v/%d/%v, live %+v/%d/%v",
				id, layers, gotRec, gotOverlap, gotOK, wantRec, wantOverlap, wantOK)
		}
	}
}

// resident is one entry as a test sees it: its decoded score and the
// generation of the arena that holds it.
type resident struct {
	r   cost.Score
	gen uint32
}

// peek reads k's resident entry without counting a probe.
func peek(s *Store, k Key) (resident, bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[k]
	if !ok {
		return resident{}, false
	}
	a := s.arenas.at(e.slot)
	r, _ := a.decode(e.off, k.Lo)
	return resident{r: r, gen: a.seq}, true
}

// residentKeys maps every resident key to the testScore index it holds
// (its Cycles field encodes it).
func residentKeys(s *Store) map[Key]int {
	keys := map[Key]int{}
	for i := range s.shards {
		for k := range s.shards[i].m {
			e, _ := peek(s, k)
			keys[k] = int(e.r.Cycles - 1e15)
		}
	}
	return keys
}

// segmentKeys decodes every 'E' frame of the segments in dir.
func segmentKeys(t *testing.T, dir string) map[Key]int {
	t.Helper()
	keys := map[Key]int{}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := len(segMagic); off < len(data); {
			payload, next, ok := readFrame(data, off)
			if !ok {
				t.Fatalf("%s: broken frame at offset %d", filepath.Base(seg), off)
			}
			if payload[0] == recEntry {
				r, err := decodeScore(payload[17:], 0)
				if err != nil {
					t.Fatal(err)
				}
				k := Key{Hi: binary.LittleEndian.Uint64(payload[1:9]), Lo: binary.LittleEndian.Uint64(payload[9:17])}
				keys[k] = int(r.Cycles - 1e15)
			}
			off = next
		}
	}
	return keys
}

// TestResultSurvivesProcessDeath: once RecordResult returns, its record
// has reached the OS. A second Open on the directory, with the first
// store never closed, sees every record and the entries put before it —
// also when the segments the early records were first written to have
// since been dropped under the byte budget.
func TestResultSurvivesProcessDeath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		o      Options
		filler int // entries put between records
	}{
		{"one segment", Options{}, 0},
		{"across evictions", Options{MaxSegmentBytes: 4096, MaxBytes: 12 << 10}, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.o.Dir = dir
			s, err := Open(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const n = 5
			next := 0
			for i := 0; i < n; i++ {
				for j := 0; j <= tc.filler; j++ {
					s.Put(testKey(next), testScore(next))
					next++
				}
				s.RecordResult(ResultRecord{
					Identity: "id",
					Layers:   []string{fmt.Sprintf("layer%d", i)},
					Fanouts:  []int{i + 1},
					Maps:     []MappingRecord{NewMappingRecord(mappingFor(2))},
					Fitness:  float64(100 + i),
				})
			}
			live := s.Stats()
			if tc.filler > 0 && live.Evicted == 0 {
				t.Fatalf("no generation dropped: %+v", live)
			}

			re, err := Open(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			st := re.Stats()
			if st.Results != n || st.Loaded != live.Entries {
				t.Fatalf("second open saw %+v, want %d results and the %d resident entries", st, n, live.Entries)
			}
			liveKeys := residentKeys(s)
			for k, i := range residentKeys(re) {
				if j, ok := liveKeys[k]; !ok || j != i {
					t.Fatalf("entry %d resident after reopen, not in the live store", i)
				}
			}
			for i := 0; i < n; i++ {
				rec, _, ok := re.Nearest("id", []string{fmt.Sprintf("layer%d", i)})
				if !ok || rec.Fitness != float64(100+i) {
					t.Errorf("record %d not visible to a second open: ok=%v rec=%+v", i, ok, rec)
				}
			}
		})
	}
}

// TestUpgradeDiscardsV2Layout: a directory written by the previous format
// (a DGEVSTR2 segment plus a results.json index) opens empty, and both
// files are removed; neither is migrated.
func TestUpgradeDiscardsV2Layout(t *testing.T) {
	dir := t.TempDir()
	oldSeg := filepath.Join(dir, "seg-000005.seg")
	data := appendFrame([]byte("DGEVSTR2"), appendString([]byte{recHeader}, cost.Fingerprint))
	entry := appendUint(appendUint([]byte{recEntry}, testKey(1).Hi), testKey(1).Lo)
	data = appendFrame(data, appendScore(entry, testScore(1)))
	if err := os.WriteFile(oldSeg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	oldIndex := filepath.Join(dir, "results.json")
	index := `[{"identity":"id","layers":["a"],"fanouts":[4],"maps":[{"levels":null}],"fitness":1}]`
	if err := os.WriteFile(oldIndex, []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 0 || st.Results != 0 {
		t.Errorf("old layout loaded: %+v", st)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("entry from a DGEVSTR2 segment served")
	}
	if _, _, ok := s.Nearest("id", []string{"a"}); ok {
		t.Error("record from results.json migrated")
	}
	for _, path := range []string{oldSeg, oldIndex} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived open", filepath.Base(path))
		}
	}
}

// TestUpgradeDiscardsV3Segments: segments written under an older layout
// open as foreign files — DGEVSTR3, whose entries were keyed by the
// unpacked word stream, and DGEVSTR4, whose entries held a whole
// cost.Result: nothing loads, entries or results, and the segments are
// removed.
func TestUpgradeDiscardsV3Segments(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	magics := map[int]string{3: "DGEVSTR3", 4: "DGEVSTR3", 5: "DGEVSTR4", 6: "DGEVSTR4"}
	for seq := 3; seq <= 6; seq++ {
		data := appendFrame([]byte(magics[seq]), appendString([]byte{recHeader}, cost.Fingerprint))
		entry := appendUint(appendUint([]byte{recEntry}, testKey(seq).Hi), testKey(seq).Lo)
		data = appendFrame(data, appendScore(entry, testScore(seq)))
		rec, err := json.Marshal(ResultRecord{Identity: "id", Layers: []string{"a"}, Fanouts: []int{4}, Maps: []MappingRecord{{}}, Fitness: 1})
		if err != nil {
			t.Fatal(err)
		}
		data = appendFrame(data, append([]byte{recResult}, rec...))
		path := filepath.Join(dir, fmt.Sprintf("seg-%06d.seg", seq))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 0 || st.Results != 0 || st.Entries != 0 {
		t.Errorf("older segments loaded: %+v", st)
	}
	for seq := 3; seq <= 6; seq++ {
		if _, ok := s.Get(testKey(seq)); ok {
			t.Errorf("entry from a %s segment served", magics[seq])
		}
	}
	if _, _, ok := s.Nearest("id", []string{"a"}); ok {
		t.Error("record from an older segment served")
	}
	for _, path := range paths {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived open", filepath.Base(path))
		}
	}
}

// TestRotationTimed: staging generations and dropping old ones is counted
// and timed, on a memory-only store and on a disk-backed one.
func TestRotationTimed(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Options{Dir: dir, MaxBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			s.Put(testKey(i), testScore(i))
		}
		st := s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// ~450 KB of entries through 8 KiB generations: some fifty
		// stagings, and a drop after each once the budget is full.
		if st.Rotations < 40 || st.Evicted == 0 {
			t.Fatalf("dir %q: %d rotations, %d evicted", dir, st.Rotations, st.Evicted)
		}
		if st.RotateNanos == 0 || st.RotateMaxNanos == 0 || st.RotateMaxNanos > st.RotateNanos {
			t.Errorf("dir %q: rotate time %d ns, max %d ns", dir, st.RotateNanos, st.RotateMaxNanos)
		}
	}
}

// TestEvictMemoryBudget: a memory-only store never holds more than its
// budget. Generations are dropped whole and oldest first, so what stays
// resident is the newest inserts, and Bytes is exactly their encoded
// size.
func TestEvictMemoryBudget(t *testing.T) {
	const budget = 64 << 10
	s, err := Open(Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testScore(i))
		if st := s.Stats(); st.Bytes > budget {
			t.Fatalf("after %d puts: %d resident bytes over a %d budget", i+1, st.Bytes, budget)
		}
	}
	st := s.Stats()
	if st.Evicted == 0 || uint64(st.Entries)+st.Evicted != n || st.Inserts != n {
		t.Fatalf("stats after %d puts: %+v", n, st)
	}
	var bytes int64
	oldest := n
	for _, i := range residentKeys(s) {
		bytes += entryFrameLen(testScore(i))
		oldest = min(oldest, i)
	}
	if bytes != st.Bytes {
		t.Errorf("resident entries encode to %d bytes, Stats.Bytes = %d", bytes, st.Bytes)
	}
	if oldest != n-st.Entries {
		t.Errorf("resident entries are not the newest %d: oldest is %d", st.Entries, oldest)
	}
}

// TestEvictedKeyReinserted: a key put again after its generation was
// dropped lives in the newer generation and survives the drops that
// follow, until its own generation goes.
func TestEvictedKeyReinserted(t *testing.T) {
	s, err := Open(Options{MaxSegmentBytes: 4096, MaxBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(-1)
	s.Put(k, testScore(0))
	next := 0
	fill := func() { // enough puts to drop every generation present now
		for end := next + 240; next < end; next++ {
			s.Put(testKey(next), testScore(next))
		}
	}
	fill()
	if _, ok := peek(s, k); ok {
		t.Fatal("key survived the drop of its generation")
	}
	s.Put(k, testScore(0))
	e, _ := peek(s, k)
	gen := e.gen
	if s.gens[0].seq >= gen {
		t.Fatal("no older generation left to drop")
	}
	for s.gens[0].seq < gen { // drop every generation older than the key's
		s.Put(testKey(next), testScore(next))
		next++
		if _, ok := peek(s, k); !ok {
			t.Fatalf("re-put key lost to the drop of an older generation (oldest now %d, key's %d)", s.gens[0].seq, gen)
		}
	}
	fill()
	if _, ok := peek(s, k); ok {
		t.Error("re-put key survived the drop of its own generation")
	}
}

// TestEvictKeepsNewerCopy: dropping a generation deletes only the keys
// still recorded under it. Two retained segments holding the same keys
// load them under the newer generation, so dropping the older one
// evicts nothing.
func TestEvictKeepsNewerCopy(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000002.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Both segments are full, so Open stages a third; the budget holds two.
	o := Options{Dir: dir, MaxSegmentBytes: 1024, MaxBytes: int64(2 * len(data))}
	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != 20 || st.Entries != 10 || len(re.gens) != 3 {
		t.Fatalf("reopen over two copies: %+v, %d generations", st, len(re.gens))
	}
	for i := 10; re.gens[0].seq == 1; i++ {
		re.Put(testKey(i), testScore(i))
	}
	if st := re.Stats(); st.Evicted != 0 {
		t.Fatalf("dropping the older copy evicted %d entries", st.Evicted)
	}
	for i := 0; i < 10; i++ {
		if _, ok := peek(re, testKey(i)); !ok {
			t.Fatalf("entry %d lost with the older copy of its segment", i)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000001.seg")); !os.IsNotExist(err) {
		t.Error("dropped generation's segment survived")
	}
}

// TestEvictAtOpen: opening a directory that holds more segment bytes
// than the budget keeps the newest segments that fit, deletes the older
// ones and counts their entries as evicted without decoding them — a cut
// segment with a corrupted payload is neither truncated nor reported.
func TestEvictAtOpen(t *testing.T) {
	dir := t.TempDir()
	const n = 600
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) < 6 {
		t.Fatalf("want at least 6 segments to cut, got %d", len(segs))
	}
	before := segmentKeys(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff // the oldest segment's last entry
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	o := Options{Dir: dir, MaxSegmentBytes: 8192, MaxBytes: 24 << 10,
		Log: slog.New(slog.NewTextHandler(&logs, nil))}
	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	kept := segmentKeys(t, dir)
	if st.Loaded != len(kept) || st.Entries != len(kept) || st.Loaded+int(st.Evicted) != n || len(before) != n {
		t.Fatalf("open under a %d-byte budget: %+v; kept segments hold %d entries of %d", o.MaxBytes, st, len(kept), n)
	}
	if st.Bytes > o.MaxBytes || st.Segments >= len(segs) {
		t.Errorf("open kept %d bytes in %d of %d segments", st.Bytes, st.Segments, len(segs))
	}
	if strings.Contains(logs.String(), "torn") {
		t.Errorf("a cut segment was decoded:\n%s", logs.String())
	}
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Error("oldest segment survived the cut")
	}
	for k, i := range kept {
		if got, ok := peek(re, k); !ok || !sameScore(got.r, testScore(i)) {
			t.Fatalf("entry %d of a kept segment not served", i)
		}
	}
}

// TestConcurrentSharing: many writers and readers over overlapping key
// ranges, with a disk tier attached — the -race CI job runs this.
func TestConcurrentSharing(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, keys = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := testKey(i)
				if r, ok := s.Get(k); ok {
					if !sameScore(r, testScore(i)) {
						panic(fmt.Sprintf("worker %d: entry %d corrupted", w, i))
					}
					continue
				}
				s.Put(k, testScore(i))
			}
			s.RecordResult(ResultRecord{
				Identity: "id",
				Layers:   []string{fmt.Sprintf("w%d", w)},
				Maps:     []MappingRecord{{}},
				Fitness:  float64(w),
			})
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
	if st.Results != workers {
		t.Errorf("results = %d, want %d", st.Results, workers)
	}
}

// TestEvictConcurrent: many writers and readers over overlapping keys on
// a disk-backed store a tenth the size of their working set, so drops
// and rotations interleave with probes — the -race CI job runs this. Every hit returns the value put under its key, the tier stays in
// its budget, and a reopen holds exactly the entries of the segments left.
func TestEvictConcurrent(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, MaxSegmentBytes: 4096, MaxBytes: 16 << 10}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 1200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for j := 0; j < 2000; j++ {
				i := rng.Intn(keys)
				if j%2 == 0 {
					i = rng.Intn(keys / 10) // a hot tenth, hit often
				}
				if r, ok := s.Get(testKey(i)); ok {
					if !sameScore(r, testScore(i)) {
						panic(fmt.Sprintf("worker %d: entry %d corrupted", w, i))
					}
					continue
				}
				s.Put(testKey(i), testScore(i))
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Evicted == 0 || st.Bytes > o.MaxBytes {
		t.Fatalf("stats after concurrent traffic: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if keys, onDisk := residentKeys(re), segmentKeys(t, dir); !reflect.DeepEqual(keys, onDisk) {
		t.Fatalf("reopened store holds %d keys, its segments %d", len(keys), len(onDisk))
	}
}

// TestResultIndexSemantics: best-fitness replacement for an exact
// workload (an equally fit record replaces too), FIFO eviction at the
// limit, and earliest-wins overlap ties. add reports exactly the changes,
// which are what a disk-backed store appends.
func TestResultIndexSemantics(t *testing.T) {
	ix := resultIndex{limit: 3}
	rec := func(id string, layers []string, fit float64) ResultRecord {
		maps := make([]MappingRecord, len(layers))
		return ResultRecord{Identity: id, Layers: layers, Maps: maps, Fitness: fit}
	}
	if !ix.add(rec("id", []string{"a", "b"}, 10)) {
		t.Fatal("new record reported no change")
	}
	if ix.add(rec("id", []string{"a", "b"}, 20)) { // worse: ignored
		t.Fatal("worse duplicate reported a change")
	}
	if r, _, ok := ix.nearest("id", []string{"a"}); !ok || r.Fitness != 10 {
		t.Fatalf("worse duplicate replaced the incumbent: %+v", r)
	}
	if !ix.add(rec("id", []string{"a", "b"}, 5)) { // better: replaces
		t.Fatal("better duplicate reported no change")
	}
	if r, _, ok := ix.nearest("id", []string{"a"}); !ok || r.Fitness != 5 {
		t.Fatalf("better duplicate ignored: %+v", r)
	}
	tie := rec("id", []string{"a", "b"}, 5)
	tie.Fanouts = []int{9}
	if !ix.add(tie) { // as fit: replaces, the newer genome wins
		t.Fatal("equally fit duplicate reported no change")
	}
	if r, _, ok := ix.nearest("id", []string{"a"}); !ok || len(r.Fanouts) != 1 || r.Fanouts[0] != 9 {
		t.Fatalf("equally fit duplicate ignored: %+v", r)
	}
	// Ties on overlap keep the earliest record.
	ix.add(rec("id", []string{"a", "c"}, 7))
	if r, overlap, ok := ix.nearest("id", []string{"a"}); !ok || overlap != 1 || r.Fitness != 5 {
		t.Fatalf("tie did not keep the earliest: %+v (overlap %d)", r, overlap)
	}
	// Identity scoping.
	if _, _, ok := ix.nearest("other", []string{"a"}); ok {
		t.Fatal("matched across identities")
	}
	// FIFO eviction at the limit: {a,b} is the oldest of the four records
	// and the only one carrying "b".
	ix.add(rec("id", []string{"d"}, 1))
	ix.add(rec("id", []string{"e"}, 1))
	if _, _, ok := ix.nearest("id", []string{"b"}); ok {
		t.Fatal("oldest record survived past the limit")
	}
	if r, _, ok := ix.nearest("id", []string{"e"}); !ok || r.Fitness != 1 {
		t.Fatalf("newest record missing: %+v", r)
	}
	// holds knows exactly the encodings of the records held now: not a
	// replaced version, not an evicted record.
	v1, v2 := rec("id", []string{"f"}, 2), rec("id", []string{"f"}, 2)
	v2.Fanouts = []int{3}
	raw := func(r ResultRecord) []byte { b, _ := json.Marshal(r); return b }
	ix.addRaw(v1, raw(v1))
	ix.addRaw(v2, raw(v2)) // a tie: replaces v1
	if ix.holds(raw(v1)) || !ix.holds(raw(v2)) {
		t.Fatal("holds does not follow a replacement")
	}
	for _, l := range []string{"g", "h", "i"} {
		ix.addRaw(rec("id", []string{l}, 1), nil)
	}
	if ix.holds(raw(v2)) || len(ix.known) != 0 {
		t.Fatalf("holds still knows %d evicted encodings", len(ix.known))
	}
}

// TestProbeKeySensitivity: the probe key must separate every gene the
// analysis depends on — and the context every problem-level input.
func TestProbeKeySensitivity(t *testing.T) {
	layer := workload.Layer{Type: workload.Conv, K: 8, C: 4, Y: 16, X: 16, R: 3, S: 3}
	layers := []workload.Layer{layer}
	ctxs := NewContexts("fp1", "analytical", layers, nil)
	if len(ctxs) != 1 {
		t.Fatalf("contexts: %d", len(ctxs))
	}
	base := mappingFor(2)
	k0 := ProbeKey(&ctxs[0], []int{4, 4}, base)

	if k := ProbeKey(&ctxs[0], []int{4, 8}, base); k == k0 {
		t.Error("fanout change not separated")
	}
	m := mappingFor(2)
	m.Levels[0].Tiles[workload.K] = 3
	if k := ProbeKey(&ctxs[0], []int{4, 4}, m); k == k0 {
		t.Error("tile change not separated")
	}
	m = mappingFor(2)
	m.Levels[1].Spatial = workload.C
	if k := ProbeKey(&ctxs[0], []int{4, 4}, m); k == k0 {
		t.Error("spatial change not separated")
	}
	m = mappingFor(2)
	m.Levels[0].Order[0], m.Levels[0].Order[1] = m.Levels[0].Order[1], m.Levels[0].Order[0]
	if k := ProbeKey(&ctxs[0], []int{4, 4}, m); k == k0 {
		t.Error("order change not separated")
	}

	// Context separates fingerprint, backend and layer shape.
	if c := NewContexts("fp2", "analytical", layers, nil); c[0] == ctxs[0] {
		t.Error("fingerprint change not separated")
	}
	if c := NewContexts("fp1", "bound", layers, nil); c[0] == ctxs[0] {
		t.Error("backend change not separated")
	}
	bigger := layer
	bigger.K = 16
	if c := NewContexts("fp1", "analytical", []workload.Layer{bigger}, nil); c[0] == ctxs[0] {
		t.Error("layer shape change not separated")
	}
	// Same inputs → same context and key, independent of process state.
	again := NewContexts("fp1", "analytical", layers, nil)
	if again[0] != ctxs[0] || ProbeKey(&again[0], []int{4, 4}, base) != k0 {
		t.Error("key derivation not stable")
	}
}

// TestProbeKeyPackedGenesFit: ProbeKey packs two tiles per word, which is
// sound because a tile that passed repair never exceeds its layer
// dimension and workload.Layer.Validate caps every dimension at
// workload.MaxExtent (2^24): the largest legal tile fits its 32-bit half,
// keys separate the largest tiles, and one past the bound is refused.
func TestProbeKeyPackedGenesFit(t *testing.T) {
	if workload.MaxExtent >= 1<<32 {
		t.Fatalf("MaxExtent %d does not fit a 32-bit half", workload.MaxExtent)
	}
	gemm := workload.Layer{Name: "fc", Type: workload.GEMM, K: workload.MaxExtent, C: 1, Y: 1, X: 1, R: 1, S: 1}
	if err := gemm.Validate(); err != nil {
		t.Fatalf("a layer at the dimension bound refused: %v", err)
	}
	over := gemm
	over.K = workload.MaxExtent + 1
	if err := over.Validate(); err == nil {
		t.Fatal("a layer past the dimension bound validated")
	}

	// A tile spanning the whole bound-sized K is legal: repair keeps it.
	ones := func() mapping.Mapping {
		m := mappingFor(2)
		for i := range m.Levels {
			m.Levels[i].Tiles = workload.Vector{1, 1, 1, 1, 1, 1}
		}
		return m
	}
	m := ones()
	m.Levels[1].Tiles[workload.K] = workload.MaxExtent
	if repaired := m.Repair(gemm); repaired.Levels[1].Tiles[workload.K] != workload.MaxExtent {
		t.Fatalf("repair changed the legal tile to %d", repaired.Levels[1].Tiles[workload.K])
	}

	// From a base whose tiles set all 24 bits below the bound, clearing any
	// one bit of any tile, or raising it to the bound itself, keys apart
	// from the base and from every other such probe: no packed gene spills
	// into its neighbour's half or past its own.
	ctxs := NewContexts("fp", "analytical", []workload.Layer{gemm}, nil)
	full := func() mapping.Mapping {
		m := ones()
		for i := range m.Levels {
			for d := range m.Levels[i].Tiles {
				m.Levels[i].Tiles[d] = workload.MaxExtent - 1
			}
		}
		return m
	}
	seen := map[Key]string{ProbeKey(&ctxs[0], []int{4, 4}, full()): "base"}
	for lv := 0; lv < 2; lv++ {
		for _, d := range workload.AllDims {
			for b := 0; b <= 24; b++ {
				mm := full()
				if b < 24 {
					mm.Levels[lv].Tiles[d] ^= 1 << b
				} else {
					mm.Levels[lv].Tiles[d] = workload.MaxExtent
				}
				name := fmt.Sprintf("level %d %s=%#x", lv, d, mm.Levels[lv].Tiles[d])
				k := ProbeKey(&ctxs[0], []int{4, 4}, mm)
				if prev, dup := seen[k]; dup {
					t.Fatalf("%s shares a key with %s", name, prev)
				}
				seen[k] = name
			}
		}
	}

	// Small gene values in bulk — a fanout and two tiles packed into one
	// word pair — never collide either.
	small := make(map[Key]bool)
	for f := 1; f <= 16; f++ {
		for a := 1; a <= 16; a++ {
			for b := 1; b <= 16; b++ {
				mm := ones()
				mm.Levels[0].Tiles[workload.K], mm.Levels[0].Tiles[workload.C] = a, b
				small[ProbeKey(&ctxs[0], []int{f, 4}, mm)] = true
			}
		}
	}
	if len(small) != 16*16*16 {
		t.Fatalf("small genes collide: %d unique keys of %d", len(small), 16*16*16)
	}
}

// TestMappingRecordRoundTrip: genome mapping blocks survive the index
// form, and hostile records degrade to legal-ish defaults, never panic.
func TestMappingRecordRoundTrip(t *testing.T) {
	m := mappingFor(3)
	m.Levels[1].Spatial = workload.C
	m.Levels[2].Tiles[workload.X] = 9
	back := NewMappingRecord(m).Mapping()
	if len(back.Levels) != 3 {
		t.Fatalf("levels: %d", len(back.Levels))
	}
	for i := range m.Levels {
		if m.Levels[i] != back.Levels[i] {
			t.Errorf("level %d changed: %+v vs %+v", i, m.Levels[i], back.Levels[i])
		}
	}
	hostile := MappingRecord{Levels: []LevelRecord{{Spatial: 99, Order: []int{-1}, Tiles: []int{0, -5}}}}
	got := hostile.Mapping()
	if got.Levels[0].Spatial != 0 {
		t.Errorf("hostile spatial = %v", got.Levels[0].Spatial)
	}
	for d, tile := range got.Levels[0].Tiles {
		if tile < 1 {
			t.Errorf("hostile tile[%d] = %d", d, tile)
		}
	}
}
