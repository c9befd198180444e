package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"digamma"
)

// TestServerSharedAnalysis: the server's default shared tier carries
// per-layer analyses across distinct jobs — a second search over the
// same model recovers work the first one did — while staying
// bit-identical to a direct cold call of the library.
func TestServerSharedAnalysis(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1})

	stA, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", code)
	}
	waitState(t, url, stA.ID, StateDone, 30*time.Second)
	after1 := s.AnalysisStats()
	if after1.Inserts == 0 {
		t.Fatalf("first job published nothing to the shared tier: %+v", after1)
	}

	// Different seed → different dedup hash, same layers → shared hits.
	stB, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", code)
	}
	done := waitState(t, url, stB.ID, StateDone, 30*time.Second)
	after2 := s.AnalysisStats()
	if after2.Hits <= after1.Hits {
		t.Errorf("second job never hit the shared tier (hits %d -> %d)", after1.Hits, after2.Hits)
	}

	// Bit-identity across the shared tier: the served result matches a
	// cold library call with no shared cache attached.
	model, err := digamma.LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{Budget: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if done.Result == nil || done.Result.Metrics.Fitness != cold.Fitness {
		t.Errorf("served result differs from cold library run: %+v vs fitness %.12e", done.Result, cold.Fitness)
	}
}

// TestServerNoSharedAnalysis: the disable switch really disables the
// tier — jobs still run, the stats stay zero.
func TestServerNoSharedAnalysis(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1, NoSharedAnalysis: true})
	st, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, url, st.ID, StateDone, 30*time.Second)
	if got := s.AnalysisStats(); got != (digamma.AnalysisStats{}) {
		t.Errorf("disabled tier accumulated stats: %+v", got)
	}
}

// TestServerWarmStartDedup: a warm-start request must never dedup onto
// its cold twin (its result depends on the server's prior traffic), and
// it completes through the shared tier's result index, with or without a
// time-to-target bound.
func TestServerWarmStartDedup(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1})

	cold, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit cold: HTTP %d", code)
	}
	coldDone := waitState(t, url, cold.ID, StateDone, 30*time.Second)
	if s.AnalysisStats().Results == 0 {
		t.Fatal("completed job not recorded in the warm-start index")
	}
	if coldDone.Result == nil {
		t.Fatal("cold job done without a result")
	}

	warm, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2, WarmStart: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit warm: HTTP %d (deduped onto %s?)", code, warm.ID)
	}
	if warm.ID == cold.ID {
		t.Fatalf("warm-start request deduplicated onto cold job %s", cold.ID)
	}
	waitState(t, url, warm.ID, StateDone, 30*time.Second)

	// A warm start with a time-to-target bound 5% above the cold result:
	// seeded from that result, the search opens within the target.
	target := 1.05 * coldDone.Result.Metrics.Fitness
	timed, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2, WarmStart: true, Target: target})
	if code != http.StatusAccepted {
		t.Fatalf("submit warm with target: HTTP %d (deduped onto %s?)", code, timed.ID)
	}
	if timed.ID == cold.ID || timed.ID == warm.ID {
		t.Fatalf("targeted warm start deduplicated onto job %s", timed.ID)
	}
	timedDone := waitState(t, url, timed.ID, StateDone, 30*time.Second)
	if timedDone.Result == nil {
		t.Fatal("targeted warm start done without a result")
	}
	if got := timedDone.Result.Metrics.Fitness; got > target {
		t.Errorf("targeted warm start fitness %v above its target %v", got, target)
	}

	// And the tier shows up on /metrics.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"digammad_analysis_hits_total", "digammad_analysis_results"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestServerAnalysisSurvivesRestart: a disk-backed shared tier reloads
// its entries and warm-start index when the next server process opens
// the same directory — the warm tier outlives the process.
func TestServerAnalysisSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := digamma.OpenAnalysisStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, url1 := testServer(t, Config{Workers: 1, Analysis: store})
	st, code := submit(t, url1, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, url1, st.ID, StateDone, 30*time.Second)
	first := s1.AnalysisStats()
	if first.Inserts == 0 || first.Results == 0 {
		t.Fatalf("disk-backed tier never fed: %+v", first)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	reopened, err := digamma.OpenAnalysisStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.Stats()
	if got.Loaded == 0 {
		t.Errorf("restart loaded no entries: %+v", got)
	}
	if got.Results != first.Results {
		t.Errorf("warm-start index lost across restart: %d -> %d records", first.Results, got.Results)
	}
	s2, url2 := testServer(t, Config{Workers: 1, Analysis: reopened})
	st2, code := submit(t, url2, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: HTTP %d", code)
	}
	waitState(t, url2, st2.ID, StateDone, 30*time.Second)
	if after := s2.AnalysisStats(); after.Hits == 0 {
		t.Errorf("restarted server never hit the reloaded tier: %+v", after)
	}
}
