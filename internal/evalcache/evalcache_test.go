package evalcache

import "testing"

// Eviction/bounding behaviour shared with intrusive_test.go's functional
// tests: the table never exceeds its capacity, accounts every displaced
// insert, and never serves another key's value.

func TestEvictionBoundsSize(t *testing.T) {
	c := newKeyedCache(64) // 16 sets × 4 ways
	n := 10_000
	for i := 1; i <= n; i++ {
		c.Put(keyed{key: uint64(i), val: i})
	}
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", c.Len())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded after overfilling")
	}
	if int(st.Evictions)+c.Len() != n {
		t.Fatalf("evictions (%d) + resident (%d) != inserts (%d)", st.Evictions, c.Len(), n)
	}
}

func TestEvictedKeysMiss(t *testing.T) {
	c := newKeyedCache(16) // 4 sets × 4 ways
	for i := 1; i <= 1000; i++ {
		c.Put(keyed{key: uint64(i), val: i})
	}
	// Whatever remains must return its own value, never another key's.
	for i := 1; i <= 1000; i++ {
		if v, ok := c.Get(uint64(i)); ok && v.val != i {
			t.Fatalf("Get(%d) returned %d", i, v.val)
		}
	}
}

func TestHitRate(t *testing.T) {
	c := newKeyedCache(1024)
	c.Get(1) // miss
	c.Put(keyed{key: 1, val: 1})
	c.Get(1) // hit
	c.Get(2) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if got := st.HitRate(); got != 1.0/3.0 {
		t.Fatalf("hit rate = %g", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}
