package evalcache

import (
	"sync"
	"testing"
)

// keyed is a minimal self-keyed value for the intrusive cache.
type keyed struct {
	key uint64
	val int
}

func newKeyedCache(capacity int) *Intrusive[keyed] {
	return NewIntrusive(capacity, func(k *keyed) uint64 { return k.key })
}

func TestIntrusiveGetPut(t *testing.T) {
	c := newKeyedCache(64)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(keyed{key: 1, val: 10})
	c.Put(keyed{key: 2, val: 20})
	v, ok := c.Get(1)
	if !ok || v.val != 10 {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	// Same-key Put replaces in place.
	c.Put(keyed{key: 1, val: 11})
	if v, _ := c.Get(1); v.val != 11 {
		t.Fatalf("replacement not visible: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
	c.Reset()
	if c.Len() != 0 || c.Stats().Hits != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestIntrusiveEviction(t *testing.T) {
	c := newKeyedCache(4) // one set of 4 ways
	for k := uint64(0); k < 16; k++ {
		c.Put(keyed{key: k << 20, val: int(k)}) // same set (low bits 0), distinct keys
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling one set: %+v", st)
	}
	// Every resident entry must still self-verify (hint and value agree).
	hits := 0
	for k := uint64(0); k < 16; k++ {
		if v, ok := c.Get(k << 20); ok {
			hits++
			if v.key != k<<20 {
				t.Fatalf("resident entry under wrong key: %x vs %x", v.key, k<<20)
			}
		}
	}
	if hits == 0 || hits > 4 {
		t.Fatalf("%d residents in a 4-way set", hits)
	}
}

// TestIntrusiveConcurrent hammers one small cache from many goroutines.
// Correctness bar: a Get that reports a hit must return the value whose
// embedded key matches the probe — torn (key, value) pairings from racing
// inserts must read as misses, never as wrong values. Run under -race in
// CI (the hot-packages race job covers this package).
func TestIntrusiveConcurrent(t *testing.T) {
	c := newKeyedCache(16) // tiny: maximal slot contention
	const (
		workers = 8
		rounds  = 20000
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < rounds; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := (x >> 16) % keys
				if i%3 == 0 {
					c.Put(keyed{key: k, val: int(k)})
					continue
				}
				if v, ok := c.Get(k); ok && v.key != k {
					t.Errorf("hit for key %d returned value keyed %d", k, v.key)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
