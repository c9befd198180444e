package evalstore

import (
	"bytes"
	"encoding/binary"
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

// testResult builds a Result with bit-pattern-hostile floats (negative
// zero, subnormals, huge magnitudes) so round-trip tests catch any
// formatting-based codec regression.
func testResult(i int) *cost.Result {
	f := float64(i)
	r := &cost.Result{
		Cycles:      1e15 + f,
		ComputeOnly: math.Copysign(0, -1),
		MappedMACs:  5e-324, // smallest subnormal
		DRAMWords:   1.0/3.0 + f,
		NoCWords:    math.Nextafter(1, 2),
		L1Words:     f * 1e-7,
		L2Words:     math.MaxFloat64 / (f + 2),
		Utilization: 0.5,
	}
	for l := 0; l < 2+i%3; l++ {
		lv := cost.LevelStats{
			Fanout:       4 + l,
			Occupancy:    3 + l,
			Iterations:   float64(l) + 0.25,
			IngressWords: float64(l*7) + 0.125,
			EgressWords:  float64(l*11) + 1e-9,
		}
		for d := range lv.Trips {
			lv.Trips[d] = i + l + d
		}
		lv.BufferWords.Weights = float64(i + l)
		lv.BufferWords.Inputs = float64(i * l)
		lv.BufferWords.Outputs = 1e6 / float64(i+l+1)
		r.Levels = append(r.Levels, lv)
	}
	return r
}

func testKey(i int) Key {
	return Key{Hi: uint64(i)*0x9e3779b97f4a7c15 + 1, Lo: uint64(i) ^ 0xdeadbeef}
}

func sameResult(a, b *cost.Result) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if bits(a.Cycles) != bits(b.Cycles) || bits(a.ComputeOnly) != bits(b.ComputeOnly) ||
		bits(a.MappedMACs) != bits(b.MappedMACs) || bits(a.DRAMWords) != bits(b.DRAMWords) ||
		bits(a.NoCWords) != bits(b.NoCWords) || bits(a.L1Words) != bits(b.L1Words) ||
		bits(a.L2Words) != bits(b.L2Words) || bits(a.Utilization) != bits(b.Utilization) ||
		len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return true
}

// TestCodecRoundTripExact: every float comes back with the identical bit
// pattern — the disk tier's contribution to the bit-identity contract.
func TestCodecRoundTripExact(t *testing.T) {
	for i := 0; i < 20; i++ {
		r := testResult(i)
		got, err := decodeResult(appendResult(nil, r))
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !sameResult(r, got) {
			t.Fatalf("result %d did not round-trip exactly", i)
		}
	}
	// Truncated and oversized payloads must error, not panic.
	enc := appendResult(nil, testResult(1))
	for _, cut := range []int{0, 1, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeResult(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeResult(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestMemoryStoreBasics: hit/miss accounting, clone-on-put isolation and
// idempotent re-inserts.
func TestMemoryStoreBasics(t *testing.T) {
	s := NewMemory()
	k := testKey(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	r := testResult(1)
	r.CacheKey = 42
	s.Put(k, r)
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got == r {
		t.Error("store retained the caller's pointer (must clone)")
	}
	if got.CacheKey != 0 {
		t.Errorf("stored CacheKey = %d, want 0 (keys are private per tier)", got.CacheKey)
	}
	s.Put(k, testResult(2)) // no-op: resident key
	if again, _ := s.Get(k); !sameResult(got, again) {
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
		s.Put(testKey(i), testResult(i))
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
		if !sameResult(got, testResult(i)) {
			t.Fatalf("entry %d corrupted across reopen", i)
		}
	}
	if rec, overlap, ok := re.Nearest("latency|edge|analytical|co-opt", []string{"bb", "zz"}); !ok || overlap != 1 || rec.Fitness != 123.5 {
		t.Errorf("result index not restored: ok=%v overlap=%d rec=%+v", ok, overlap, rec)
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
		s.Put(testKey(i), testResult(i))
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
	re.Put(testKey(100), testResult(100))
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
		s.Put(testKey(i), testResult(i))
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
		s.Put(testKey(i), testResult(i))
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
	re.Put(testKey(0), testResult(0))
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
			s.Put(testKey(0), testResult(0))
			inj.Set(point, faults.Knob{Every: 1})
			// Enough inserts to cross the rotation threshold under a 512 B
			// cap, whichever point is armed.
			for i := 1; i < 20; i++ {
				s.Put(testKey(i), testResult(i))
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
	s.Put(testKey(0), testResult(0))
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
// limit, spread over rotated segments between analysis entries.
func TestResultReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, MaxSegmentBytes: 2048, resultLimit: 12}
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
		if i%3 == 0 {
			s.Put(testKey(i), testResult(i))
		}
	}
	if fitter == 0 || noop == 0 || tie == 0 || evicted == 0 {
		t.Fatalf("sequence misses a case: %d fitter, %d no-op, %d tie, %d evicting", fitter, noop, tie, evicted)
	}
	live := append([]ResultRecord(nil), s.results.recs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Segments < 2 {
		t.Errorf("expected rotation under a 2 KiB cap, got %d segments", st.Segments)
	}
	if !reflect.DeepEqual(re.results.recs, live) {
		t.Fatalf("replayed index differs from the live one:\n got %+v\nwant %+v", re.results.recs, live)
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

// TestResultSurvivesProcessDeath: once RecordResult returns, its record
// has reached the OS. A second Open on the directory, with the first
// store never closed, sees every record and the entries put before it.
func TestResultSurvivesProcessDeath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
		s.RecordResult(ResultRecord{
			Identity: "id",
			Layers:   []string{fmt.Sprintf("layer%d", i)},
			Fanouts:  []int{i + 1},
			Maps:     []MappingRecord{NewMappingRecord(mappingFor(2))},
			Fitness:  float64(100 + i),
		})
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Results != n || st.Loaded != n {
		t.Fatalf("second open saw %+v, want %d results and %d entries", st, n, n)
	}
	for i := 0; i < n; i++ {
		rec, _, ok := re.Nearest("id", []string{fmt.Sprintf("layer%d", i)})
		if !ok || rec.Fitness != float64(100+i) {
			t.Errorf("record %d not visible to a second open: ok=%v rec=%+v", i, ok, rec)
		}
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
	data = appendFrame(data, appendResult(entry, testResult(1)))
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
					if !sameResult(r, testResult(i)) {
						panic(fmt.Sprintf("worker %d: entry %d corrupted", w, i))
					}
					continue
				}
				s.Put(k, testResult(i))
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
