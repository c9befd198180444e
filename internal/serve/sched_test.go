package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"digamma/internal/faults"
)

// rawSubmit POSTs an optimize request and returns the raw response (the
// caller closes the body) — for tests asserting on status codes and
// headers the JSON helpers hide.
func rawSubmit(t *testing.T, url string, req OptimizeRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// schedJob builds a bare job for scheduler unit tests: only the fields the
// scheduler reads (Tenant, cost) plus an ID to track dispatch order.
func schedJob(id int, tenant string, cost int) *Job {
	return &Job{ID: fmt.Sprintf("j%06d", id), Tenant: tenant, cost: cost}
}

// drainSched pops every queued job with `workers` concurrent consumers,
// returning the global dispatch order captured by the onDispatch hook
// (the one observation point serialized under the scheduler mutex).
func drainSched(sc *scheduler, workers, total int) []string {
	var mu sync.Mutex
	var order []string
	sc.onDispatch = func(j *Job) {
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := sc.dequeue()
				if j == nil {
					return
				}
				sc.release(j)
				mu.Lock()
				done := len(order) >= total
				mu.Unlock()
				if done {
					sc.close()
					return
				}
			}
		}()
	}
	wg.Wait()
	return order
}

// TestSchedulerDeterministicDispatch pins the fair scheduler's core
// contract: with the whole arrival sequence enqueued, the dispatch order
// is a pure function of (arrival order, weights, budgets, quantum) —
// byte-identical whether one worker or eight drain the queue, because
// every pop consults only scheduler state under one mutex.
func TestSchedulerDeterministicDispatch(t *testing.T) {
	weights := map[string]int{"alpha": 1, "beta": 2, "gamma": 1}
	arrival := func() []*Job {
		var jobs []*Job
		tenants := []string{"alpha", "beta", "alpha", "gamma", "beta", "beta", "gamma", "alpha"}
		costs := []int{500, 1500, 2000, 300, 700, 2500, 1000, 400}
		for i := range tenants {
			for k := 0; k < 3; k++ {
				jobs = append(jobs, schedJob(len(jobs)+1, tenants[i], costs[i]))
			}
		}
		return jobs
	}

	var want []string
	for _, workers := range []int{1, 2, 4, 8} {
		sc := newScheduler(1024, tenantCap{}, tenantCap{}, 1000, weights)
		jobs := arrival()
		for _, j := range jobs {
			if !sc.enqueue(j, false) {
				t.Fatal("enqueue rejected")
			}
		}
		got := drainSched(sc, workers, len(jobs))
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: dispatched %d of %d jobs", workers, len(got), len(jobs))
		}
		if want == nil {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: dispatch order diverged\n got %v\nwant %v", workers, got, want)
		}
		if n := sc.starvedCount(); n != 0 {
			t.Errorf("workers=%d: starvation guard fired %d times", workers, n)
		}
	}
}

// TestSchedulerWeightedShares: under 2-tenant saturation, each tenant's
// dispatched-eval share over the contended window is within 10% of its
// configured weight share (the acceptance criterion, measured at the
// scheduler where eval share == dispatch share × cost).
func TestSchedulerWeightedShares(t *testing.T) {
	sc := newScheduler(1024, tenantCap{}, tenantCap{}, 1000, map[string]int{"gold": 3, "silver": 1})
	const perTenant, cost = 40, 500
	id := 0
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"silver", "gold"} {
			id++
			if !sc.enqueue(schedJob(id, tenant, cost), false) {
				t.Fatal("enqueue rejected")
			}
		}
	}
	order := drainSched(sc, 1, 2*perTenant)

	// Only the saturated window is a fairness statement: once one tenant
	// drains, the other gets everything.
	window := order[:perTenant]
	goldEvals := 0
	for _, id := range window {
		var n int
		fmt.Sscanf(id, "j%06d", &n)
		if n%2 == 0 { // even ids are gold (second in each arrival pair)
			goldEvals += cost
		}
	}
	share := float64(goldEvals) / float64(perTenant*cost)
	const want = 3.0 / 4.0
	if share < want-0.10 || share > want+0.10 {
		t.Errorf("gold eval share %.3f over saturated window, want %.2f ± 0.10", share, want)
	}
}

// TestSchedulerQuantumBoundedDelay: a tenant saturating the queue cannot
// push a newly arrived tenant's first job back by more than one scheduling
// round — the hog dispatches at most weight×quantum worth of evals (plus
// the job already past the deficit check) before the newcomer runs.
func TestSchedulerQuantumBoundedDelay(t *testing.T) {
	const quantum = 1000
	sc := newScheduler(1024, tenantCap{}, tenantCap{}, quantum, nil)
	const hogCost = 500
	for i := 1; i <= 50; i++ {
		if !sc.enqueue(schedJob(i, "hog", hogCost), false) {
			t.Fatal("enqueue rejected")
		}
	}
	// Dispatch a few hog jobs first so the rotation is mid-round when the
	// late tenant arrives.
	for i := 0; i < 3; i++ {
		sc.release(sc.dequeue())
	}
	late := schedJob(999999, "late", 100)
	if !sc.enqueue(late, false) {
		t.Fatal("late enqueue rejected")
	}
	maxHogBefore := quantum/hogCost + 1 // one round's replenishment, plus one borderline job
	for i := 0; ; i++ {
		j := sc.dequeue()
		sc.release(j)
		if j == late {
			break
		}
		if i >= maxHogBefore {
			t.Fatalf("hog dispatched %d jobs after late's arrival before late ran (bound %d)", i+1, maxHogBefore)
		}
	}
	if n := sc.starvedCount(); n != 0 {
		t.Errorf("starvation guard fired %d times", n)
	}
}

// TestSchedulerSingleTenantFIFO: with one tenant — all legacy traffic —
// the rotation degenerates to exact FIFO, regardless of costs.
func TestSchedulerSingleTenantFIFO(t *testing.T) {
	sc := newScheduler(1024, tenantCap{}, tenantCap{}, 2000, nil)
	costs := []int{100, 90000, 50, 2000, 7}
	for i, c := range costs {
		if !sc.enqueue(schedJob(i+1, DefaultTenant, c), false) {
			t.Fatal("enqueue rejected")
		}
	}
	order := drainSched(sc, 1, len(costs))
	for i, id := range order {
		if want := fmt.Sprintf("j%06d", i+1); id != want {
			t.Fatalf("dispatch %d = %s, want %s (FIFO)", i, id, want)
		}
	}
}

// TestTenantCapRejection: a tenant over its own job cap gets 429 with a
// Retry-After header while another tenant — and the default tenant — is
// still admitted; cancelling the capped tenant's queued job frees its
// budget immediately.
func TestTenantCapRejection(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, QueueDepth: 16, TenantJobCap: 2})

	// Occupy the worker so subsequent jobs stay queued and countable.
	blocker, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 1_000_000, Tenant: "greedy"})
	waitState(t, url, blocker.ID, StateRunning, 10*time.Second)

	queued, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 5, Tenant: "greedy"})
	if code != http.StatusAccepted {
		t.Fatalf("second greedy submit: HTTP %d", code)
	}
	resp := rawSubmit(t, url, OptimizeRequest{Model: "mnasnet", Budget: 300, Tenant: "greedy"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	resp.Body.Close()

	// Another tenant and legacy (tenant-less) traffic are unaffected.
	if _, code := submit(t, url, OptimizeRequest{Model: "mnasnet", Budget: 300, Tenant: "modest"}); code != http.StatusAccepted {
		t.Errorf("other-tenant submit: HTTP %d, want 202", code)
	}
	if _, code := submit(t, url, OptimizeRequest{Model: "mobilenetv2", Budget: 300}); code != http.StatusAccepted {
		t.Errorf("default-tenant submit: HTTP %d, want 202", code)
	}

	// Cancelling the queued greedy job frees the cap slot immediately.
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if _, code := submit(t, url, OptimizeRequest{Model: "mnasnet", Budget: 300, Seed: 7, Tenant: "greedy"}); code != http.StatusAccepted {
		t.Errorf("post-cancel greedy submit: HTTP %d, want 202", code)
	}

	req, _ = http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+blocker.ID, nil)
	dresp, _ = http.DefaultClient.Do(req)
	dresp.Body.Close()
}

// TestTenantBudgetCap: the eval-budget cap rejects independently of the
// job-count cap.
func TestTenantBudgetCap(t *testing.T) {
	// Pin the single worker inside the hog's runJob with an injected
	// store delay (searches are too fast to race against): the hog's
	// terminal write sleeps, so the thrifty job below deterministically
	// stays queued — its budget outstanding — through every assertion.
	// The hog runs under the default tenant, whose budget never counts
	// against "thrifty".
	store, _ := diskStore(t)
	store.Faults = faults.New(1)
	store.Faults.Set(PointResult, faults.Knob{Every: 1, Delay: 2 * time.Second})
	_, url := testServer(t, Config{Workers: 1, QueueDepth: 16, TenantBudgetCap: 1000, Store: store})

	hog, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 50})
	if code != http.StatusAccepted {
		t.Fatalf("hog submit: HTTP %d", code)
	}

	blocker, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 900, Tenant: "thrifty"})
	resp := rawSubmit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Tenant: "thrifty"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: HTTP %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	if _, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Tenant: "other"}); code != http.StatusAccepted {
		t.Errorf("other-tenant submit: HTTP %d, want 202", code)
	}
	// Disarm the delay; the hog's in-flight sleep expires on its own,
	// freeing the worker for the queued jobs.
	store.Faults.Set(PointResult, faults.Knob{})
	waitState(t, url, hog.ID, StateDone, time.Minute)
	waitState(t, url, blocker.ID, StateDone, time.Minute)
	if _, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 4, Tenant: "thrifty"}); code != http.StatusAccepted {
		t.Errorf("post-completion submit: HTTP %d, want 202", code)
	}
}

// TestTenantCapOverrides: the per-tenant cap override wins over the
// default in both directions — tighter and looser — and an explicit 0
// lifts the cap for that tenant only, while the default keeps binding
// everyone else.
func TestTenantCapOverrides(t *testing.T) {
	const cost = 100
	cases := []struct {
		name      string
		jobCap    tenantCap
		budgetCap tenantCap
		tenant    string
		pre       int // jobs already queued for tenant, `cost` evals each
		wantErr   error
	}{
		{"default binds absent tenant", tenantCap{def: 2}, tenantCap{}, "alpha", 2, errTenantCap},
		{"looser job override admits", tenantCap{def: 2, per: map[string]int{"gold": 5}}, tenantCap{}, "gold", 2, nil},
		{"tighter job override rejects", tenantCap{def: 10, per: map[string]int{"trial": 1}}, tenantCap{}, "trial", 1, errTenantCap},
		{"zero override lifts the cap", tenantCap{def: 1, per: map[string]int{"gold": 0}}, tenantCap{}, "gold", 3, nil},
		{"override scoped to its tenant", tenantCap{def: 1, per: map[string]int{"gold": 0}}, tenantCap{}, "alpha", 1, errTenantCap},
		{"tighter budget override rejects", tenantCap{}, tenantCap{def: 10_000, per: map[string]int{"trial": 150}}, "trial", 1, errTenantCap},
		{"looser budget override admits", tenantCap{}, tenantCap{def: 150, per: map[string]int{"gold": 10_000}}, "gold", 1, nil},
		{"unlimited when nothing set", tenantCap{}, tenantCap{}, "anyone", 5, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := newScheduler(1024, tc.jobCap, tc.budgetCap, 1000, nil)
			for i := 0; i < tc.pre; i++ {
				if !sc.enqueue(schedJob(i+1, tc.tenant, cost), false) {
					t.Fatal("setup enqueue rejected")
				}
			}
			if err := sc.admit(tc.tenant, 1, cost); !errors.Is(err, tc.wantErr) {
				t.Errorf("admit(%s) = %v, want %v", tc.tenant, err, tc.wantErr)
			}
		})
	}
}

// TestTenantHeader: the X-Digamma-Tenant header fills the tenant when the
// body leaves it empty, and the job's status echoes it.
func TestTenantHeader(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/optimize",
		strings.NewReader(`{"model":"ncf","budget":200,"seed":31}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" {
		t.Errorf("status tenant %q, want acme", st.Tenant)
	}
	waitState(t, url, st.ID, StateDone, time.Minute)
}

// TestCancelRacesDispatch: cancels racing the workers' dispatch — each
// job cancelled twice at once while two workers drain the queue — settle
// every job exactly once and give back every queue slot, running slot
// and budget unit, whichever side reaches a job first.
func TestCancelRacesDispatch(t *testing.T) {
	const n = 24
	s, _ := testServer(t, Config{Workers: 2, QueueDepth: n, TenantBudgetCap: n * 300})
	jobs := make([]*Job, n)
	for i := range jobs {
		spec, err := buildSpec(OptimizeRequest{Model: "ncf", Budget: 300, Seed: int64(i + 1), Tenant: "racer"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], _, err = s.submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.cancelJob(j)
			}()
		}
	}
	wg.Wait()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			t.Fatalf("job %s never settled (state %s)", j.ID, j.State())
		}
		if st := j.State(); st != StateCancelled && st != StateDone {
			t.Errorf("job %s settled %s, want cancelled or done", j.ID, st)
		}
	}
	if load := s.sched.snapshot()["racer"]; load != (tenantSnapshot{}) {
		t.Errorf("scheduler still holds %+v for the tenant", load)
	}
	if err := s.sched.admit("racer", n, n*300); err != nil {
		t.Errorf("full budget not free after every job settled: %v", err)
	}
}
