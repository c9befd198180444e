package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"digamma/internal/faults"
)

// submitBatchReq POSTs a batch and decodes the response when it carries a
// BatchStatus.
func submitBatchReq(t *testing.T, url string, req BatchRequest) (BatchStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st BatchStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getBatchStatus(t *testing.T, url, id, query string) (BatchStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/batches/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st BatchStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestBatchEndToEnd: a batch of related searches (shared defaults,
// per-item seed overrides, one intra-batch duplicate) is accepted as one
// unit, long-polls to completion, serves per-item results, and — with a
// disk store — cost exactly one WAL frame.
func TestBatchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, url := testServer(t, Config{Workers: 2, Store: store})

	st, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 300},
		Items: []OptimizeRequest{
			{Seed: 2},
			{Seed: 3},
			{Seed: 2}, // duplicate of item 0: dedups inside the batch
		},
	})
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	if st.Total != 3 || st.Deduplicated != 1 {
		t.Fatalf("batch total=%d dedup=%d, want 3 and 1", st.Total, st.Deduplicated)
	}
	if st.Items[0].ID != st.Items[2].ID {
		t.Errorf("duplicate items got distinct jobs %s and %s", st.Items[0].ID, st.Items[2].ID)
	}
	if st.Items[0].ID == st.Items[1].ID {
		t.Errorf("distinct items share job %s", st.Items[0].ID)
	}

	final, code := getBatchStatus(t, url, st.ID, "?wait=30s")
	if code != http.StatusOK {
		t.Fatalf("batch wait: HTTP %d", code)
	}
	if final.State != StateDone || final.Completed != 3 {
		t.Fatalf("batch state=%s completed=%d, want done 3", final.State, final.Completed)
	}
	for i, item := range final.Items {
		if item.State != StateDone {
			t.Errorf("item %d state %s, want done", i, item.State)
		}
		if item.Result == nil {
			t.Errorf("item %d missing result", i)
		}
	}
	// Distinct seeds genuinely searched differently.
	if final.Items[0].Result != nil && final.Items[1].Result != nil &&
		final.Items[0].RequestHash == final.Items[1].RequestHash {
		t.Error("distinct seeds produced the same request hash")
	}

	// One batch, one WAL frame — the fsync amortization the endpoint
	// exists for.
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if frames := bytes.Count(data, []byte("\n")); frames != 1 {
		t.Errorf("WAL has %d frames for one batch, want 1", frames)
	}
}

// TestBatchMatchesIndependentSubmits: a batch member's result is
// bit-identical to the same request submitted alone — batching changes
// scheduling, never search trajectories.
func TestBatchMatchesIndependentSubmits(t *testing.T) {
	_, url := testServer(t, Config{Workers: 2})
	batch, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 300},
		Items:    []OptimizeRequest{{Seed: 11}, {Seed: 12}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	final, _ := getBatchStatus(t, url, batch.ID, "?wait=30s")
	if final.State != StateDone {
		t.Fatalf("batch state %s, want done", final.State)
	}

	_, url2 := testServer(t, Config{Workers: 2})
	for i, seed := range []int64{11, 12} {
		st, _ := submit(t, url2, OptimizeRequest{Model: "ncf", Budget: 300, Seed: seed})
		solo := waitState(t, url2, st.ID, StateDone, time.Minute)
		got, want := final.Items[i].Result, solo.Result
		if got == nil || want == nil {
			t.Fatalf("item %d: missing result (batch %v, solo %v)", i, got != nil, want != nil)
		}
		if got.Metrics != want.Metrics {
			t.Errorf("item %d: batch result metrics %+v != solo %+v", i, got.Metrics, want.Metrics)
		}
	}
}

// TestBatchCancel: DELETE /v1/batches/{id} cancels every non-terminal
// member and the batch settles as complete (cancelled is terminal).
func TestBatchCancel(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, QueueDepth: 16})

	blocker, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000})
	waitState(t, url, blocker.ID, StateRunning, 10*time.Second)

	batch, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 300},
		Items:    []OptimizeRequest{{Seed: 21}, {Seed: 22}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/batches/"+batch.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final, _ := getBatchStatus(t, url, batch.ID, "?wait=10s")
	if final.State != StateDone {
		t.Fatalf("batch state %s after cancel, want done", final.State)
	}
	for i, item := range final.Items {
		if item.State != StateCancelled {
			t.Errorf("item %d state %s, want cancelled", i, item.State)
		}
	}

	dreq, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+blocker.ID, nil)
	dresp, _ := http.DefaultClient.Do(dreq)
	dresp.Body.Close()
}

// TestBatchValidation: client mistakes map to 400 naming the offending
// item; oversized batches are bounded by MaxBatchItems; unknown batches
// 404.
func TestBatchValidation(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, MaxBatchItems: 2})

	if _, code := submitBatchReq(t, url, BatchRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", code)
	}
	if _, code := submitBatchReq(t, url, BatchRequest{
		Items: []OptimizeRequest{{Model: "ncf"}, {Model: "ncf", Seed: 2}, {Model: "ncf", Seed: 3}},
	}); code != http.StatusBadRequest {
		t.Errorf("oversized batch: HTTP %d, want 400", code)
	}
	body, _ := json.Marshal(BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 200},
		Items:    []OptimizeRequest{{Seed: 2}, {Model: "no-such-model"}},
	})
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	n, _ := resp.Body.Read(data)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad item: HTTP %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(data[:n]), "item 1") {
		t.Errorf("bad-item error %q does not name item 1", data[:n])
	}
	if _, code := getBatchStatus(t, url, "b999999", ""); code != http.StatusNotFound {
		t.Errorf("unknown batch: HTTP %d, want 404", code)
	}
}

// TestBatchTenantCap: batch admission is a single check for the whole
// batch — a batch that would push its tenant over cap is rejected atomically
// (no members accepted) with 429.
func TestBatchTenantCap(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1, QueueDepth: 16, TenantJobCap: 2})

	blocker, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000, Tenant: "capped"})
	waitState(t, url, blocker.ID, StateRunning, 10*time.Second)

	body, _ := json.Marshal(BatchRequest{
		Tenant:   "capped",
		Defaults: OptimizeRequest{Model: "ncf", Budget: 300},
		Items:    []OptimizeRequest{{Seed: 41}, {Seed: 42}},
	})
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap batch: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 batch response missing Retry-After")
	}
	// Atomic rejection: no member leaked into the job store.
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 1 {
		t.Errorf("job store holds %d jobs after rejected batch, want 1 (the blocker)", jobs)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+blocker.ID, nil)
	dresp, _ := http.DefaultClient.Do(dreq)
	dresp.Body.Close()
}

// TestBatchWALFaultRejected: a failing batch append rejects the whole
// batch (never a half-accepted one) and rolls the ID sequences back.
func TestBatchWALFaultRejected(t *testing.T) {
	store, _ := diskStore(t)
	store.Faults = faults.New(1)
	store.Faults.Set(PointWAL, faults.Knob{Every: 1})
	s, url := testServer(t, Config{Workers: 1, Store: store})

	_, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 200},
		Items:    []OptimizeRequest{{Seed: 51}, {Seed: 52}},
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("faulted batch: HTTP %d, want 503", code)
	}
	if n := s.storeErrors.Load(); n != 1 {
		t.Fatalf("storeErrors = %d, want 1", n)
	}
	store.Faults.Set(PointWAL, faults.Knob{}) // disarm
	// Rollback freed the IDs: the next batch starts at j000001/b000001.
	st, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 200},
		Items:    []OptimizeRequest{{Seed: 53}},
	})
	if code != http.StatusAccepted || st.ID != "b000001" || st.Items[0].ID != "j000001" {
		t.Fatalf("post-rollback batch: HTTP %d batch %s job %s, want 202 b000001 j000001", code, st.ID, st.Items[0].ID)
	}
	final, _ := getBatchStatus(t, url, st.ID, "?wait=30s")
	if final.State != StateDone {
		t.Fatalf("batch state %s, want done", final.State)
	}
}

// TestBatchCrashRecovery is the durability acceptance criterion: a crash
// mid-batch (Close == SIGKILL as far as the store can tell) recovers
// per-member state — terminal members re-serve their results, incomplete
// members re-enqueue, and the batch object itself is rebuilt with its
// membership (dedup references included) intact.
func TestBatchCrashRecovery(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		store, reopen := diskStore(t)
		s1, err := New(Config{Workers: 1, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		// Occupy the worker with a search too big to finish, then land a
		// batch behind it: member 0 duplicates the running blocker (dedup
		// ref), members 1-2 stay queued.
		blockSpec, err := buildSpec(OptimizeRequest{Model: "resnet18", Budget: 1_000_000, Seed: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		blocker, _, err := s1.submit(blockSpec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for blocker.State() != StateRunning {
			if time.Now().After(deadline) {
				t.Fatal("blocker never started")
			}
			time.Sleep(2 * time.Millisecond)
		}
		var specs []*searchSpec
		for _, req := range []OptimizeRequest{
			{Model: "resnet18", Budget: 1_000_000, Seed: 3}, // dedups onto blocker
			{Model: "ncf", Budget: 250, Seed: 61},
			{Model: "ncf", Budget: 250, Seed: 62},
		} {
			spec, err := buildSpec(req, 0)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
		b1, err := s1.submitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := s1.batchStatus(b1, false); got.Deduplicated != 1 {
			t.Fatalf("batch dedup=%d, want 1", got.Deduplicated)
		}
		s1.Close() // crash

		s2, err := New(Config{Workers: 2, Store: reopen()})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if n := s2.jobsRecovered.Load(); n != 3 {
			t.Fatalf("recovered %d incomplete jobs, want 3 (blocker + 2 fresh members)", n)
		}
		b2 := s2.getBatch(b1.ID)
		if b2 == nil {
			t.Fatal("batch not recovered")
		}
		st := s2.batchStatus(b2, false)
		if st.Total != 3 || st.Deduplicated != 1 {
			t.Fatalf("recovered batch total=%d dedup=%d, want 3 and 1", st.Total, st.Deduplicated)
		}
		// Finish the batch: cancel the huge member (which is also the
		// dedup target), let the small ones complete.
		s2.cancelJob(s2.get(st.Items[0].ID))
		select {
		case <-b2.Done():
		case <-time.After(time.Minute):
			t.Fatal("recovered batch never completed")
		}
		final := s2.batchStatus(b2, true)
		states := map[State]int{}
		for _, item := range final.Items {
			states[item.State]++
		}
		if states[StateCancelled] != 1 || states[StateDone] != 2 {
			t.Fatalf("recovered batch states %v, want 1 cancelled + 2 done", states)
		}
	})
}

// TestBatchRecoveryReenqueuesExactlyIncomplete: members that finished
// before the crash are NOT re-run — recovery re-enqueues exactly the
// incomplete ones.
func TestBatchRecoveryReenqueuesExactlyIncomplete(t *testing.T) {
	store, reopen := diskStore(t)
	s1, err := New(Config{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var specs []*searchSpec
	for _, req := range []OptimizeRequest{
		{Model: "ncf", Budget: 250, Seed: 71},
		{Model: "resnet18", Budget: 1_000_000, Seed: 72},
		{Model: "ncf", Budget: 250, Seed: 73},
	} {
		spec, err := buildSpec(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	b1, err := s1.submitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Member 0 completes; member 1 wedges the single worker; member 2
	// stays queued.
	fast := b1.members[0].job
	select {
	case <-fast.Done():
	case <-time.After(time.Minute):
		t.Fatal("first member never finished")
	}
	s1.Close() // crash with members 1 (running) and 2 (queued) incomplete

	s2, err := New(Config{Workers: 1, Store: reopen()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.jobsRecovered.Load(); n != 2 {
		t.Fatalf("recovered %d incomplete members, want exactly 2", n)
	}
	b2 := s2.getBatch(b1.ID)
	if b2 == nil {
		t.Fatal("batch not recovered")
	}
	st := s2.batchStatus(b2, true)
	if st.Items[0].State != StateDone {
		t.Errorf("finished member recovered as %s, want done (re-served, not re-run)", st.Items[0].State)
	}
	if st.Items[0].Result == nil {
		t.Error("finished member lost its result across the crash")
	}
	for _, i := range []int{1, 2} {
		if got := st.Items[i].State; got != StateQueued && got != StateRunning {
			t.Errorf("incomplete member %d recovered as %s, want queued/running", i, got)
		}
	}
	s2.cancelJob(s2.get(st.Items[1].ID))
	select {
	case <-b2.Done():
	case <-time.After(time.Minute):
		t.Fatal("recovered batch never completed")
	}
}

// TestBatchSSE: the batch event stream replays member completions and
// terminates on the "done" event.
func TestBatchSSE(t *testing.T) {
	_, url := testServer(t, Config{Workers: 2})
	batch, code := submitBatchReq(t, url, BatchRequest{
		Defaults: OptimizeRequest{Model: "ncf", Budget: 250},
		Items:    []OptimizeRequest{{Seed: 81}, {Seed: 82}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	resp, err := http.Get(url + "/v1/batches/" + batch.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var members, done int
	buf := make([]byte, 64<<10)
	var stream []byte
	for {
		n, err := resp.Body.Read(buf)
		stream = append(stream, buf[:n]...)
		if err != nil {
			break
		}
	}
	for _, line := range strings.Split(string(stream), "\n") {
		switch {
		case strings.HasPrefix(line, "event: member"):
			members++
		case strings.HasPrefix(line, "event: done"):
			done++
		}
	}
	if members != 2 || done != 1 {
		t.Fatalf("SSE stream had %d member and %d done events, want 2 and 1\n%s", members, done, stream)
	}
	var last BatchEvent
	for _, line := range strings.Split(string(stream), "\n") {
		if strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(line[6:]), &last); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
		}
	}
	if last.Type != "done" || last.Completed != 2 || last.Total != 2 {
		t.Fatalf("final event %+v, want done 2/2", last)
	}
}

// TestWaitCapConfigurable: Config.WaitCap bounds ?wait= long-polls, and an
// expired window returns the CURRENT non-terminal status with 200 — never
// an opaque timeout.
func TestWaitCapConfigurable(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, WaitCap: 100 * time.Millisecond})

	st, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000})
	waitState(t, url, st.ID, StateRunning, 10*time.Second)

	begin := time.Now()
	resp, err := http.Get(url + "/v1/jobs/" + st.ID + "?wait=1h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(begin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped wait: HTTP %d, want 200", resp.StatusCode)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Errorf("capped wait returned state %s, want the current (running) status", got.State)
	}
	if elapsed > 5*time.Second {
		t.Errorf("wait=1h took %v despite a 100ms cap", elapsed)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+st.ID, nil)
	dresp, _ := http.DefaultClient.Do(dreq)
	dresp.Body.Close()
}

// TestTenantMetricsCardinality: tenant-label churn cannot grow the scrape
// past MaxTenantSeries — later tenants aggregate into the overflow bucket,
// and the label set, once minted, is scrape-to-scrape stable.
func TestTenantMetricsCardinality(t *testing.T) {
	_, url := testServer(t, Config{Workers: 2, MaxTenantSeries: 3, TenantJobCap: 1, QueueDepth: 64})

	var ids []string
	for i := 0; i < 5; i++ {
		st, code := submit(t, url, OptimizeRequest{
			Model: "ncf", Budget: 200, Seed: int64(100 + i),
			Tenant: fmt.Sprintf("churn-%d", i),
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, url, id, StateDone, time.Minute)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	tenants := map[string]bool{}
	for _, line := range strings.Split(body.String(), "\n") {
		if !strings.HasPrefix(line, "digammad_tenant_rejections_total{") {
			continue
		}
		start := strings.Index(line, `tenant="`) + len(`tenant="`)
		end := strings.Index(line[start:], `"`)
		tenants[line[start:start+end]] = true
	}
	if len(tenants) > 3 {
		t.Errorf("scrape minted %d tenant labels %v, cap is 3", len(tenants), tenants)
	}
	if !tenants[OverflowTenant] {
		t.Errorf("overflow bucket missing from tenant labels %v", tenants)
	}
	if !tenants[DefaultTenant] {
		t.Errorf("default tenant missing from tenant labels %v", tenants)
	}
}
