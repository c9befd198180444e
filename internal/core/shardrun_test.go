package core

import (
	"strings"
	"testing"
)

// TestShardRunnerRejectsBadIslands: every runner entry point takes its
// island id (and CompleteBoundary its batch sources) off the wire, so an
// id outside the run, an island the runner does not own, or a migrant
// batch from an out-of-range or repeated source must come back as an
// error — never an index panic — and leave the runner able to finish the
// boundary correctly afterwards.
func TestShardRunnerRejectsBadIslands(t *testing.T) {
	e := seededEngine(t, "ncf", 1, func(c *Config) {
		c.Islands = 2
		c.MigrateEvery = 2
	})
	r, err := NewShardRunner(e, 480)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finalize(0); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("Finalize of an unowned island: %v", err)
	}
	for _, id := range []int{-1, 2} {
		if err := r.Own(id, 0); err == nil {
			t.Errorf("Own(%d) accepted", id)
		}
		if _, err := r.Advance(id, 1, false); err == nil {
			t.Errorf("Advance(%d) accepted", id)
		}
		if _, err := r.CompleteBoundary(id, nil); err == nil {
			t.Errorf("CompleteBoundary(%d) accepted", id)
		}
		if _, err := r.Finalize(id); err == nil {
			t.Errorf("Finalize(%d) accepted", id)
		}
	}
	for id, is := range r.islands {
		if err := r.Own(id, is.seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Own(0, r.islands[0].seed); err == nil {
		t.Error("second Own(0) accepted")
	}
	exports := make([][]byte, 2)
	for id := range exports {
		rep, err := r.Advance(id, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		exports[id] = rep.Exports
	}
	for _, bad := range [][]MigrantBatch{
		{{From: -1, Elites: exports[1]}},
		{{From: 2, Elites: exports[1]}},
		{{From: 1, Elites: exports[1]}, {From: 1, Elites: exports[1]}},
	} {
		if _, err := r.CompleteBoundary(0, bad); err == nil || !strings.Contains(err.Error(), "out of range or repeated") {
			t.Errorf("batches from %d, ...: %v", bad[0].From, err)
		}
	}
	for id := range exports {
		if _, err := r.CompleteBoundary(id, []MigrantBatch{{From: 1 - id, Elites: exports[1-id]}}); err != nil {
			t.Fatalf("island %d after rejected batches: %v", id, err)
		}
		if _, err := r.Finalize(id); err != nil {
			t.Fatal(err)
		}
	}
}
