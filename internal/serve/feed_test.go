package serve

import (
	"sync"
	"testing"
)

// TestFeedDropsOldest pins the feed's back-pressure policy: a subscriber
// that never reads keeps the newest feedBuffer events — its oldest ones
// are dropped, never the newest — so the terminal event always arrives,
// while the history and a late subscriber's replay keep everything.
func TestFeedDropsOldest(t *testing.T) {
	var mu sync.Mutex
	var f feed[int]
	replay, ch, unsub := f.subscribe(&mu)
	if len(replay) != 0 {
		t.Fatalf("replay of an empty feed: %v", replay)
	}
	const n = 3*feedBuffer + 5
	for i := range n {
		mu.Lock()
		f.publishLocked(i)
		mu.Unlock()
	}
	if len(ch) != feedBuffer {
		t.Fatalf("full subscriber holds %d events, want %d", len(ch), feedBuffer)
	}
	for want := n - feedBuffer; want < n; want++ {
		if got := <-ch; got != want {
			t.Fatalf("subscriber read %d, want %d (the newest %d events in order)", got, want, feedBuffer)
		}
	}
	late, _, lateUnsub := f.subscribe(&mu)
	defer lateUnsub()
	if len(late) != n || late[0] != 0 || late[n-1] != n-1 {
		t.Fatalf("late replay has %d events [%d..%d], want all %d", len(late), late[0], late[len(late)-1], n)
	}
	unsub()
	mu.Lock()
	f.publishLocked(n)
	mu.Unlock()
	if len(ch) != 0 {
		t.Fatal("unsubscribed channel still receives events")
	}
}
