// Package par is the repo's one indexed parallel-for. The engine's
// island fan-out and initial-population evaluator, the co-opt per-layer
// fan-out and the figure-cell runners all share the same shape — N
// independent slots, bounded workers, first error in index order,
// deterministic results because every slot owns its output — so the
// pattern lives here once. The in-process generation loop does not use it
// to score a brood when an island has more than one worker: the island's
// run-scoped evaluation crew (core's crew.go) scores children as they are
// bred, with no per-generation goroutine start. A dist worker's
// ShardRunner still scores each brood with For.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) across up to workers goroutines (≤ 1 = serial) and
// returns the first error in index order. Each index is claimed by exactly
// one goroutine; callers get deterministic results regardless of the
// worker count as long as fn(i) writes only to slot i.
func For(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
