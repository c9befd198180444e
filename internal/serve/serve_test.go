package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"digamma"
	"digamma/internal/evalstore"
	"digamma/internal/report"
	"digamma/internal/workload"
)

// testServer starts an in-process digammad on a random port.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL
}

func submit(t *testing.T, url string, req OptimizeRequest) (Status, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("submit response %s: %v", data, err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, url, id string) Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, url, id string, want State, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, url, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance flow: two identical and one distinct
// request submitted concurrently dedup to two jobs; the SSE stream yields
// progress events; and a completed job's result is bit-identical to
// calling digamma.Optimize directly with the same options.
func TestEndToEnd(t *testing.T) {
	s, url := testServer(t, Config{Workers: 2})

	reqA := OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2}
	reqB := OptimizeRequest{Model: "ncf", Budget: 300, Seed: 3}

	var wg sync.WaitGroup
	results := make([]Status, 3)
	codes := make([]int, 3)
	for i, req := range []OptimizeRequest{reqA, reqA, reqB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], codes[i] = submit(t, url, req)
		}()
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
	}
	if results[0].ID != results[1].ID {
		t.Errorf("identical requests got distinct jobs %s and %s", results[0].ID, results[1].ID)
	}
	if results[2].ID == results[0].ID {
		t.Errorf("distinct request deduplicated onto %s", results[0].ID)
	}
	if got := s.DedupHits(); got != 1 {
		t.Errorf("dedup hits = %d, want 1", got)
	}

	// All jobs complete.
	for _, id := range []string{results[0].ID, results[2].ID} {
		st := waitState(t, url, id, StateDone, 30*time.Second)
		if st.Result == nil {
			t.Fatalf("done job %s has no result", id)
		}
	}

	// SSE stream (replayed post-completion) carries ≥ 1 progress event and
	// ends with a terminal state event.
	progress, last := readSSE(t, url, results[0].ID)
	if progress < 1 {
		t.Errorf("SSE stream had %d progress events, want ≥ 1", progress)
	}
	if last.State != StateDone {
		t.Errorf("SSE terminal state = %s, want done", last.State)
	}

	// Bit-identical to the library path.
	model, err := digamma.LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{Budget: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	servedJSON, err := json.Marshal(getStatus(t, url, results[0].ID).Result)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(report.FromEvaluation(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedJSON, directJSON) {
		t.Errorf("served result differs from direct digamma.Optimize:\nserved: %s\ndirect: %s", servedJSON, directJSON)
	}

	// A repeat of reqA after completion is served from the store, result
	// attached, without running a third search.
	st, code := submit(t, url, reqA)
	if code != http.StatusOK || !st.Deduplicated || st.State != StateDone || st.Result == nil {
		t.Errorf("repeat submit: code %d, dedup %v, state %s, result? %v",
			code, st.Deduplicated, st.State, st.Result != nil)
	}
}

// readSSE consumes a job's event stream until the terminal state event,
// returning the progress-event count and the last event.
func readSSE(t *testing.T, url, id string) (progress int, last Event) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Type == "progress" {
			progress++
		}
		last = ev
		if ev.Type == "state" && ev.State.Terminal() {
			return progress, last
		}
	}
	t.Fatalf("SSE stream ended without a terminal event (read %d progress)", progress)
	return
}

// TestCancelRunning cancels a long-running search and expects a terminal
// cancelled state within a generation boundary.
func TestCancelRunning(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})

	st, code := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, url, st.ID, StateRunning, 10*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		got := getStatus(t, url, st.ID)
		if got.State == StateCancelled {
			if got.Error == "" {
				t.Error("cancelled job has no error detail")
			}
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job reached %s, want cancelled", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel did not take effect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The SSE stream of a cancelled job also terminates.
	if _, last := readSSE(t, url, st.ID); last.State != StateCancelled {
		t.Errorf("SSE terminal state = %s, want cancelled", last.State)
	}
}

// TestCancelQueued cancels a job that never got a worker; it must turn
// cancelled immediately and the worker must skip it.
func TestCancelQueued(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, QueueDepth: 4})

	// Occupy the only worker.
	blocker, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000})
	waitState(t, url, blocker.ID, StateRunning, 10*time.Second)

	queued, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300})
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d", code)
	}
	if st := getStatus(t, url, queued.ID); st.State != StateQueued {
		t.Fatalf("job state %s, want queued", st.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("cancel response state %s, want cancelled", st.State)
	}

	// Unblock the worker and check it skips the cancelled job: a fresh
	// submit of the same spec must create a NEW job (cancelled jobs don't
	// serve dedup hits) that completes.
	req2, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+blocker.ID, nil)
	resp2, _ := http.DefaultClient.Do(req2)
	resp2.Body.Close()

	again, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300})
	if again.ID == queued.ID {
		t.Fatal("cancelled job served a dedup hit")
	}
	waitState(t, url, again.ID, StateDone, 30*time.Second)
}

// TestQueueFull bounds the queue: with the one worker busy and the queue
// at depth, a further distinct submit gets 503.
func TestQueueFull(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, QueueDepth: 1})

	running, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000})
	waitState(t, url, running.ID, StateRunning, 10*time.Second)

	queued, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300})
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", code)
	}
	if _, code := submit(t, url, OptimizeRequest{Model: "mnasnet", Budget: 300}); code != http.StatusServiceUnavailable {
		t.Errorf("over-queue submit: HTTP %d, want 503", code)
	}

	// Cancelling the queued job frees its slot immediately — the next
	// distinct submit must be accepted, not 503'd by a dead queue entry.
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, code := submit(t, url, OptimizeRequest{Model: "mnasnet", Budget: 300}); code != http.StatusAccepted {
		t.Errorf("submit after queued-cancel: HTTP %d, want 202", code)
	}

	req, _ = http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+running.ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
}

// TestBadRequests maps every client mistake to HTTP 400 with a useful
// message — including the typed facade errors.
func TestBadRequests(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"unknown model", `{"model":"lenet"}`},
		{"both model and layers", `{"model":"ncf","layers":[{"name":"l0","type":"GEMM","k":8,"c":8,"y":8,"x":1,"r":1,"s":1}]}`},
		{"unknown platform", `{"model":"ncf","platform":"tpu"}`},
		{"unknown objective", `{"model":"ncf","objective":"throughput"}`},
		{"unknown algorithm", `{"model":"ncf","algorithm":"SimulatedAnnealing"}`},
		{"bad layer type", `{"layers":[{"name":"l0","type":"POOL","k":8,"c":8,"y":8,"x":1,"r":1,"s":1}]}`},
		{"malformed layer dims", `{"layers":[{"name":"l0","type":"CONV","k":0,"c":3,"y":8,"x":8,"r":3,"s":3}]}`},
		{"unknown field", `{"model":"ncf","bugdet":100}`},
		{"not json", `model=ncf`},
		{"budget over cap", `{"model":"ncf","budget":1000001}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(url+"/v1/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", tc.name, resp.StatusCode, data)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error detail in %s", tc.name, data)
		}
	}
}

// TestInlineLayers submits an inline workload and matches its result
// against the same layers run through the library.
func TestInlineLayers(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})

	specs := []workload.LayerSpec{
		{Name: "fc0", Type: "GEMM", K: 64, C: 32, Y: 8, X: 1, R: 1, S: 1},
		{Name: "fc1", Type: "GEMM", K: 32, C: 64, Y: 8, X: 1, R: 1, S: 1, Count: 2},
	}
	st, code := submit(t, url, OptimizeRequest{Layers: specs, ModelName: "tiny-mlp", Budget: 200, Seed: 5})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	got := waitState(t, url, st.ID, StateDone, 30*time.Second)
	if got.Model != "tiny-mlp" {
		t.Errorf("model name %q", got.Model)
	}

	model, err := workload.FromSpecs("tiny-mlp", specs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{Budget: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || got.Result.Metrics.Cycles != direct.Cycles {
		t.Errorf("served cycles != direct cycles")
	}
}

// TestWorkersExcludedFromHash: the same search at different worker counts
// is the same request (results are bit-identical by construction).
func TestWorkersExcludedFromHash(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	a, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Workers: 1})
	b, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Workers: 4})
	if a.ID != b.ID {
		t.Errorf("worker count changed the request hash: %s vs %s", a.ID, b.ID)
	}
}

// TestDiscoveryAndHealth covers /v1/models, /v1/platforms and /healthz.
func TestDiscoveryAndHealth(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})

	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Models []struct {
			Name   string `json:"name"`
			Layers int    `json:"layers"`
			MACs   int64  `json:"macs"`
		} `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) < 7 {
		t.Errorf("models: %d entries", len(models.Models))
	}
	for _, m := range models.Models {
		if m.Layers < 1 || m.MACs < 1 {
			t.Errorf("model %s: layers %d macs %d", m.Name, m.Layers, m.MACs)
		}
	}

	resp, err = http.Get(url + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var plats struct {
		Platforms []struct {
			Name          string  `json:"name"`
			AreaBudgetMM2 float64 `json:"area_budget_mm2"`
		} `json:"platforms"`
	}
	err = json.NewDecoder(resp.Body).Decode(&plats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(plats.Platforms) != 2 || plats.Platforms[0].AreaBudgetMM2 != 0.2 {
		t.Errorf("platforms: %+v", plats.Platforms)
	}

	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}
}

// TestMetrics runs a couple of searches and checks the exposition text
// carries the advertised series with sane values. The shared tier gets a
// budget one search overflows, so its eviction series move too.
func TestMetrics(t *testing.T) {
	const analysisBudget = 64 << 10
	analysis, err := evalstore.Open(evalstore.Options{MaxBytes: analysisBudget})
	if err != nil {
		t.Fatal(err)
	}
	_, url := testServer(t, Config{Workers: 2, Analysis: analysis})

	a, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300})
	submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300}) // dedup hit
	waitState(t, url, a.ID, StateDone, 30*time.Second)

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"digammad_queue_depth ",
		`digammad_jobs{state="done"} 1`,
		"digammad_submitted_total 2",
		"digammad_dedup_hits_total 1",
		"digammad_evalcache_hit_rate ",
		"digammad_delta_evals_total ",
		"digammad_delta_layers_reused_total ",
		"digammad_evalpool_gets_total ",
		"digammad_evalpool_reuses_total ",
		"digammad_evalpool_reuse_rate ",
		`digammad_build_info{version=`,
		`digammad_search_latency_seconds_bucket{backend="analytical",le="+Inf"} 1`,
		`digammad_search_latency_seconds_count{backend="analytical"} 1`,
		`digammad_phase_seconds_bucket{phase="evaluate",le="+Inf"}`,
		`digammad_store_io_seconds_count{op="wal_append"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// The engine's default path is the delta path: a completed DiGamma
	// search must have scored candidates incrementally and reused parent
	// layer analyses.
	var deltas float64
	if _, err := fmt.Sscanf(findLine(text, "digammad_delta_evals_total"), "digammad_delta_evals_total %g", &deltas); err != nil || deltas <= 0 {
		t.Errorf("delta evals not recorded (%v): %s", err, findLine(text, "digammad_delta_evals_total"))
	}
	// The GA revisits genomes heavily, so a completed search must have
	// registered real cache traffic.
	var hits float64
	if _, err := fmt.Sscanf(findLine(text, "digammad_evalcache_hits_total"), "digammad_evalcache_hits_total %g", &hits); err != nil || hits <= 0 {
		t.Errorf("evalcache hits = %g (err %v), want > 0", hits, err)
	}
	// The search overflowed the shared tier's budget: generations were
	// dropped, and what stays resident fits the budget.
	var evicted, bytes float64
	if _, err := fmt.Sscanf(findLine(text, "digammad_analysis_evicted_total"), "digammad_analysis_evicted_total %g", &evicted); err != nil || evicted <= 0 {
		t.Errorf("analysis evictions = %g (err %v), want > 0", evicted, err)
	}
	if _, err := fmt.Sscanf(findLine(text, "digammad_analysis_bytes"), "digammad_analysis_bytes %g", &bytes); err != nil || bytes <= 0 || bytes > analysisBudget {
		t.Errorf("analysis bytes = %g (err %v), want in (0, %d]", bytes, err, analysisBudget)
	}
}

func findLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return line
		}
	}
	return ""
}

// TestRequestHashCanonical pins what the dedup key does and does not see.
func TestRequestHashCanonical(t *testing.T) {
	base := OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2}
	specA, err := buildSpec(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Workers = 8 // excluded: results are bit-identical at any count
	specB, err := buildSpec(same, 0)
	if err != nil {
		t.Fatal(err)
	}
	if specA.hash != specB.hash {
		t.Error("Workers perturbed the request hash")
	}
	for name, mutate := range hashFieldMutations() {
		req := base
		mutate(&req)
		spec, err := buildSpec(req, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.hash == specA.hash {
			t.Errorf("changing %s did not change the request hash", name)
		}
	}
}

// hashFieldMutations perturbs each fitness-relevant request field in turn.
// New fitness-relevant fields must be added here: the sensitivity tests
// below are the audit the dedup hash is held to.
func hashFieldMutations() map[string]func(*OptimizeRequest) {
	return map[string]func(*OptimizeRequest){
		"seed":      func(r *OptimizeRequest) { r.Seed = 3 },
		"budget":    func(r *OptimizeRequest) { r.Budget = 301 },
		"platform":  func(r *OptimizeRequest) { r.Platform = "cloud" },
		"objective": func(r *OptimizeRequest) { r.Objective = "edp" },
		"algorithm": func(r *OptimizeRequest) { r.Algorithm = "Random" },
		"model":     func(r *OptimizeRequest) { r.Model = "mnasnet" },
		"fidelity":  func(r *OptimizeRequest) { r.Fidelity = "physical" },
		"prune":     func(r *OptimizeRequest) { r.Prune = true },
		"islands":   func(r *OptimizeRequest) { r.Islands = 4 },
		"migrate":   func(r *OptimizeRequest) { r.MigrateEvery = 3 },
		"warmstart": func(r *OptimizeRequest) { r.WarmStart = true },
		"target":    func(r *OptimizeRequest) { r.Target = 1e12 },
		"profiles":  func(r *OptimizeRequest) { r.IslandProfiles = []string{"explorer", "scout"} },
		// Profile-list layout traps: a rotation of one two-element name
		// must not collide with two one-element names, nor with the same
		// names carrying a shifted separator.
		"profiles-split": func(r *OptimizeRequest) { r.IslandProfiles = []string{"explorer"} },
		"profiles-pair":  func(r *OptimizeRequest) { r.IslandProfiles = []string{"explorer", "explorer"} },
	}
}

// TestRequestHashFieldSensitivity audits the dedup key field by field:
// every single-field variant must hash differently from the base *and*
// from every other variant — a positional-layout bug (two fields swapping
// slots, or one absorbing another's bytes) would surface as a pairwise
// collision here.
func TestRequestHashFieldSensitivity(t *testing.T) {
	base := OptimizeRequest{Model: "ncf", Budget: 300, Seed: 2}
	baseSpec, err := buildSpec(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": baseSpec.hash}
	for name, mutate := range hashFieldMutations() {
		req := base
		mutate(&req)
		spec, err := buildSpec(req, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, h := range seen {
			if h == spec.hash {
				t.Errorf("requests differing only in %q vs %q collide on %s", name, prev, h)
			}
		}
		seen[name] = spec.hash
	}
}

// TestJobWaitLongPoll pins the ?wait= long-poll: one GET held until the
// job is terminal replaces a status poll loop, a wait on an
// already-terminal job returns immediately, an expired window returns
// the still-running status rather than hanging, and a malformed duration
// is a 400.
func TestJobWaitLongPoll(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	st, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 7})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Single held round-trip to terminal.
	resp, err := http.Get(url + "/v1/jobs/" + st.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone {
		t.Fatalf("long-poll returned non-terminal state %s (error %q)", got.State, got.Error)
	}
	if got.Result == nil {
		t.Fatal("long-poll terminal status missing result")
	}
	// A wait on a terminal job must not block for the window.
	t0 := time.Now()
	resp, err = http.Get(url + "/v1/jobs/" + st.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("wait on terminal job blocked %v", d)
	}
	// Malformed duration.
	resp, err = http.Get(url + "/v1/jobs/" + st.ID + "?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait duration: HTTP %d, want 400", resp.StatusCode)
	}
	// An expired window yields whatever state the job is in — submit a
	// big job and wait a hair: the response must come back promptly.
	st2, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 5000, Seed: 8})
	t0 = time.Now()
	resp, err = http.Get(url + "/v1/jobs/" + st2.ID + "?wait=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("1ms wait took %v", d)
	}
	if got.ID != st2.ID {
		t.Fatalf("wrong job: %s", got.ID)
	}
}
