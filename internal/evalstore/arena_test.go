package evalstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// analysisSet is n distinct repaired 2-level mappings of one conv layer,
// the canonical depth, with their content keys.
func analysisSet(n int) (workload.Layer, arch.HW, []mapping.Mapping, []Key) {
	layer := workload.Layer{Name: "conv", Type: workload.Conv, K: 64, C: 64, Y: 8, X: 8, R: 3, S: 3}
	hw := arch.HW{Fanouts: []int{4, 16}}.Defaults()
	ctxs := NewContexts("fp", "analytic", []workload.Layer{layer}, nil)
	seen := map[Key]bool{}
	var maps []mapping.Mapping
	var keys []Key
	for i := 0; len(maps) < n; i++ {
		inner := mapping.Level{Spatial: workload.Dim(i % 2), Order: mapping.CanonicalOrder()}
		outer := mapping.Level{Spatial: workload.K, Order: mapping.CanonicalOrder()}
		for d, ext := range []int{64, 64, 8, 8, 3, 3} {
			inner.Tiles[d] = 1 << ((i >> (1 + 2*d)) & 3) % ext
			outer.Tiles[d] = ext
		}
		m := mapping.Mapping{Levels: []mapping.Level{inner, outer}}
		m.RepairInPlace(layer)
		if k := ProbeKey(&ctxs[0], hw.Fanouts, m); !seen[k] {
			seen[k] = true
			maps, keys = append(maps, m), append(keys, k)
		}
	}
	return layer, hw, maps, keys
}

// TestArenaReuseAfterDrop: concurrent Gets and Puts of real
// cost-model analyses across many generation drops on a tiny budget,
// memory-only and disk-backed. Every hit decodes bit-equal to a fresh
// analysis's score, keyed by the probe, freed arenas give their slots to later generations, and no
// arena outlives its generation — the -race CI job runs this ten times
// over.
func TestArenaReuseAfterDrop(t *testing.T) {
	const workers, keys = 6, 300
	layer, hw, maps, ks := analysisSet(keys)
	for _, dir := range []string{"", t.TempDir()} {
		t.Run(fmt.Sprintf("disk=%v", dir != ""), func(t *testing.T) {
			s, err := Open(Options{Dir: dir, MaxSegmentBytes: 2048, MaxBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					an := cost.NewAnalyzer(layer)
					fresh := func(i int) cost.Score {
						r, err := an.AnalyzeTrusted(hw, maps[i])
						if err != nil {
							panic(err)
						}
						return r.Score()
					}
					rng := rand.New(rand.NewSource(int64(w)))
					for j := 0; j < 1500; j++ {
						i := rng.Intn(keys)
						if j%2 == 0 {
							i = rng.Intn(keys / 20) // a hot set, hit across drops
						}
						if r, ok := s.Get(ks[i]); ok {
							if !sameScore(r, fresh(i)) || r.Key != ks[i].Lo {
								panic(fmt.Sprintf("worker %d: analysis %d decoded wrong", w, i))
							}
							continue
						}
						s.Put(ks[i], fresh(i))
					}
				}()
			}
			wg.Wait()
			st := s.Stats()
			if st.Evicted < keys || st.Rotations < 50 {
				t.Fatalf("too few drops to reuse arenas: %+v", st)
			}
			s.logMu.Lock()
			defer s.logMu.Unlock()
			live := 0
			for _, a := range *s.arenas.slots.Load() {
				if a != nil {
					live++
				}
			}
			mapped := 0
			for _, g := range s.gens {
				if g.a != nil {
					mapped++
				}
			}
			if slots := len(*s.arenas.slots.Load()); live != mapped || slots > len(s.gens)+1 {
				t.Fatalf("%d generations hold %d arenas; the table holds %d in %d slots", len(s.gens), mapped, live, slots)
			}
		})
	}
}

// TestArenaBytesWithinBudget: the bytes written to resident arenas never
// exceed the budget plus one generation, as Puts go, and after a reopen
// that reads whole segments, headers and result records included, into
// arenas.
func TestArenaBytesWithinBudget(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, MaxSegmentBytes: 4096, MaxBytes: 16 << 10}
	limit := o.MaxBytes + o.MaxSegmentBytes
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		s.Put(testKey(i), testScore(i))
		if i%50 == 0 {
			s.RecordResult(ResultRecord{Identity: "id", Layers: []string{fmt.Sprint(i)}, Maps: []MappingRecord{{}}, Fitness: 1})
		}
		if n := s.arenas.residentBytes(); n > limit {
			t.Fatalf("after %d puts: %d arena bytes, past %d", i+1, n, limit)
		}
	}
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("nothing dropped: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.arenas.residentBytes(); n != 0 {
		t.Fatalf("Close left %d arena bytes", n)
	}
	re, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.arenas.residentBytes(); n > limit || re.Stats().Loaded == 0 {
		t.Fatalf("reopen holds %d arena bytes (limit %d), %+v", n, limit, re.Stats())
	}
}

// TestGetAfterCloseMisses: Close frees the memory tier, so a later Get
// misses instead of reading a freed arena, and a later Put stores
// nothing; the warm-start index stays readable.
func TestGetAfterCloseMisses(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			s.Put(testKey(i), testScore(i))
		}
		s.RecordResult(ResultRecord{Identity: "id", Layers: []string{"a"}, Maps: []MappingRecord{{}}, Fitness: 1})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, ok := s.Get(testKey(i)); ok {
				t.Fatalf("dir %q: entry %d served after Close", dir, i)
			}
		}
		s.Put(testKey(20), testScore(20))
		if _, ok := s.Get(testKey(20)); ok {
			t.Fatalf("dir %q: a Put after Close was stored", dir)
		}
		if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 11 {
			t.Errorf("dir %q: stats after Close: %+v", dir, st)
		}
		if _, _, ok := s.Nearest("id", []string{"a"}); !ok {
			t.Errorf("dir %q: warm-start index lost at Close", dir)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("dir %q: second Close: %v", dir, err)
		}
	}
}

// TestUndecodableFrameMisses: a resident frame that no longer decodes
// (here: its level count overwritten in the arena) is a miss, never a
// panic, and its entry leaves the index; the next Put of the key stores
// a fresh frame.
func TestUndecodableFrameMisses(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	k := testKey(3)
	s.Put(k, testScore(3))
	sh := s.shardFor(k)
	e := sh.m[k]
	a := s.arenas.at(e.slot)
	binary.LittleEndian.PutUint64(a.buf[int(e.off)+entryHeadLen+8*7:], cost.MaxLevels+1)
	if _, ok := s.Get(k); ok {
		t.Fatal("an undecodable frame was served")
	}
	if _, ok := peek(s, k); ok {
		t.Fatal("the undecodable entry stayed indexed")
	}
	s.Put(k, testScore(3))
	if r, ok := s.Get(k); !ok || !sameScore(r, testScore(3)) {
		t.Fatal("re-put after an undecodable frame not served")
	}
}

// TestShapeMismatchTruncates: replay checks an 'E' frame's length
// against its level count without decoding it. A CRC-valid entry whose
// length disagrees is a torn tail: the segment is cut before it and the
// entries ahead of it load.
func TestShapeMismatchTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Put(testKey(i), testScore(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	valid := len(data)
	entry := appendUint(appendUint([]byte{recEntry}, testKey(9).Hi), testKey(9).Lo)
	entry = appendScore(entry, testScore(9))
	binary.LittleEndian.PutUint64(entry[17+8*7:], 1) // claims one level, carries more
	data = appendFrame(data, entry)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != 4 {
		t.Errorf("loaded %d entries, want the 4 ahead of the misshapen one", st.Loaded)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(valid) {
		t.Errorf("segment not cut back to %d bytes (%v, %v)", valid, fi.Size(), err)
	}
	if _, ok := re.Get(testKey(9)); ok {
		t.Error("the misshapen entry was served")
	}
}

// residentBytes sums the bytes written to live arenas.
func (t *arenaTable) residentBytes() int64 {
	var n int64
	for _, a := range *t.slots.Load() {
		if a != nil {
			n += int64(a.n)
		}
	}
	return n
}
