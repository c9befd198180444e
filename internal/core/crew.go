package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crewSpin is how long an idle crew helper keeps polling for the next
// brood (yielding with runtime.Gosched between polls) before it parks on
// a channel. The window exists to bridge the coordinator's inter-
// generation gap — install, sort, progress and checkpoint hooks, which
// take ~10–25 µs on a single-island resnet50 search (2-core x86 VM) —
// so a helper is still polling when the next brood is published and the
// runtime never has to wake a parked thread mid-search. Parking instead
// costs the classic 50–70 µs thread wake per generation and gives back
// about half of the crew's gain. The same window bounds the breeder's
// spin while it waits for helpers to finish their last evaluations. A
// longer window buys nothing on a single search and steals cycles from
// concurrent searches sharing the cores (served jobs); shorten it, never
// lengthen it, if co-tenant throughput suffers.
const crewSpin = 40 * time.Microsecond

// liveHelpers counts crew helper goroutines that have started and not yet
// exited, process-wide. Every crew is stopped and waited for before the
// call that started it returns, so outside a running search it is zero —
// which is exactly what the crew lifecycle tests assert.
var liveHelpers atomic.Int64

// crew is a set of evaluation helper goroutines that score one island's
// children while the island is still breeding the rest of its brood. It
// is run-scoped: started once per Engine.RunContext and reused by every
// generation, so the goroutines are already running — spinning through
// crewSpin — when the next brood is published.
//
// Determinism: breeding stays serial on the island's goroutine (its RNG
// stream fixes the children), evaluation is pure and each slot writes only
// its own output, so which goroutine scores which child never shows in the
// results.
type crew struct {
	cur    atomic.Pointer[brood] // latest published brood
	parked atomic.Int32
	wake   chan struct{} // one token per parked helper to wake
	quit   chan struct{} // closed by stop
	wg     sync.WaitGroup
}

// brood is one generation's batch in flight on a crew. The breeder fills
// slot i (child, parent, dirt, pool buffer) and then publishes it by
// advancing published; helpers and the breeder claim slots through next.
// A brood is never reused, so a helper that wakes late and still holds the
// previous brood only ever sees exhausted claims.
type brood struct {
	batch
	published atomic.Int64 // slots [0, published) are bred and safe to score
	next      atomic.Int64 // next slot to claim
	left      atomic.Int64 // slots not yet scored
	errs      []error
	fin       chan struct{} // closed when left reaches zero
}

// newCrew starts helpers goroutines; nil (the serial path) when helpers
// < 1. The caller must stop it on every return path.
func newCrew(helpers int) *crew {
	if helpers < 1 {
		return nil
	}
	c := &crew{
		wake: make(chan struct{}, helpers),
		quit: make(chan struct{}),
	}
	c.wg.Add(helpers)
	liveHelpers.Add(int64(helpers))
	for range helpers {
		go c.helper()
	}
	return c
}

// stop ends every helper and waits for them to exit. Nil-safe; must not
// be called while a brood is in flight.
func (c *crew) stop() {
	if c == nil {
		return
	}
	close(c.quit)
	c.wg.Wait()
}

// stopCrews stops every crew of a run.
func stopCrews(crews []*crew) {
	for _, c := range crews {
		c.stop()
	}
}

// publish makes br visible to the helpers, waking parked ones. The store
// precedes the parked check and a parking helper registers before its
// re-check, so either the helper sees br or the breeder sees it parked.
func (c *crew) publish(br *brood) {
	c.cur.Store(br)
	for range c.parked.Load() {
		select {
		case c.wake <- struct{}{}:
		default: // enough tokens already queued
		}
	}
}

// helper is one crew goroutine: wait for a brood newer than the last one
// it worked on, score slots until the brood's claims run out, repeat.
func (c *crew) helper() {
	defer func() {
		liveHelpers.Add(-1)
		c.wg.Done()
	}()
	var last *brood
	for {
		br := c.await(last)
		if br == nil {
			return
		}
		last = br
		br.work()
	}
}

// await returns the next brood after last, or nil once the crew stops.
// It polls for crewSpin, then parks until publish or stop wakes it. The
// poll watches quit too, so stop returns at once rather than after a
// spin window.
func (c *crew) await(last *brood) *brood {
	for deadline := time.Now().Add(crewSpin); time.Now().Before(deadline); runtime.Gosched() {
		if br := c.cur.Load(); br != last {
			return br
		}
		select {
		case <-c.quit:
			return nil
		default:
		}
	}
	for {
		c.parked.Add(1)
		if br := c.cur.Load(); br != last {
			c.parked.Add(-1)
			return br
		}
		select {
		case <-c.wake:
			c.parked.Add(-1)
		case <-c.quit:
			return nil
		}
	}
}

// work claims and scores slots until none are left to claim. A claimed
// slot the breeder has not published yet is waited for by yielding: the
// breeder is running and publishes a child every few microseconds.
func (br *brood) work() {
	for {
		i := int(br.next.Add(1) - 1)
		if i >= len(br.gs) {
			return
		}
		for br.published.Load() <= int64(i) {
			runtime.Gosched()
		}
		br.errs[i] = br.score(i)
		if br.left.Add(-1) == 0 {
			close(br.fin)
		}
	}
}

// join is the breeder's half once every slot is published: score whatever
// is still unclaimed, wait — spinning for crewSpin, then blocking — for
// the helpers' in-flight slots, and return the first error in slot order.
func (br *brood) join() error {
	br.work()
	for deadline := time.Now().Add(crewSpin); br.left.Load() > 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	<-br.fin
	for _, err := range br.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
