package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"digamma"
	"digamma/internal/workload"
)

// benchSubmitWait pushes one request through the full HTTP path and polls
// until the job is terminal, returning its final state.
func benchSubmitWait(b *testing.B, url string, req OptimizeRequest) State {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	for !st.State.Terminal() {
		// Long-poll: one held round-trip per job instead of a poll loop,
		// which would quantize sub-millisecond warm-started searches up to
		// the poll interval.
		r, err := http.Get(url + "/v1/jobs/" + st.ID + "?wait=10s")
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != StateDone {
		b.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	return st.State
}

// BenchmarkServeOptimize measures one served search end-to-end — submit
// over HTTP, queue, run (ncf, budget 200), poll to completion — the
// serving baseline recorded in BENCH_core.json.
func BenchmarkServeOptimize(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Distinct seeds defeat the dedup store: every iteration pays for
		// a real search.
		benchSubmitWait(b, ts.URL, OptimizeRequest{Model: "ncf", Budget: 200, Seed: int64(i + 1)})
	}
}

// BenchmarkServeOptimizeIslands is BenchmarkServeOptimize with the
// island-model engine behind the same HTTP path: K islands (default 4,
// DIGAMMAD_BENCH_ISLANDS overrides — scripts/bench.sh threads its ISLANDS
// knob through) with a heterogeneous profile ring. The row pins the
// serving overhead of island searches in BENCH_core.json.
func BenchmarkServeOptimizeIslands(b *testing.B) {
	islands := 4
	if v := os.Getenv("DIGAMMAD_BENCH_ISLANDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			b.Fatalf("bad DIGAMMAD_BENCH_ISLANDS %q", v)
		}
		islands = n
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSubmitWait(b, ts.URL, OptimizeRequest{
			Model: "ncf", Budget: 200, Seed: int64(i + 1),
			Islands: islands, MigrateEvery: 2,
			IslandProfiles: []string{"default", "explorer", "exploiter", "scout"},
		})
	}
}

// warmBenchBase is the near-duplicate traffic stream's base workload:
// three four-layer GEMM towers (NCF-like recommendation models differing
// per customer in a few layer widths). Twelve layers keep the cold
// search's polish work well above the fixed per-request serving cost, so
// the warm/cold ratio measures reuse rather than setup overhead.
func warmBenchBase() []workload.LayerSpec {
	var specs []workload.LayerSpec
	for t := 0; t < 3; t++ {
		for i, s := range [...]workload.LayerSpec{
			{Type: "gemm", K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1},
			{Type: "gemm", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1},
			{Type: "gemm", K: 64, C: 128, Y: 1, X: 1, R: 1, S: 1},
			{Type: "gemm", K: 32, C: 64, Y: 1, X: 1, R: 1, S: 1},
		} {
			s.Name = fmt.Sprintf("t%d_fc%d", t, i)
			s.K += 16 * t
			s.C += 32 * t
			specs = append(specs, s)
		}
	}
	return specs
}

// warmBenchMacs sums a GEMM workload's MAC count — the compute scale the
// per-request target is normalized by, so perturbed (slightly larger)
// workloads get a proportionally slackened target instead of one that
// may sit below their reachable optimum.
func warmBenchMacs(specs []workload.LayerSpec) float64 {
	total := 0.0
	for _, s := range specs {
		total += float64(s.K) * float64(s.C)
	}
	return total
}

// warmBenchRequest builds iteration i of the near-duplicate stream: one
// of eight bounded single-layer perturbations of the base workload, under
// a per-cycle seed so every (cycle, perturbation) pair has a distinct
// dedup hash at any b.N — every iteration pays for a real search, never
// a dedup lookup. The time-to-target threshold is the reference fitness
// scaled by the perturbed workload's compute.
func warmBenchRequest(i int, refFitness, baseMacs float64) OptimizeRequest {
	cycle, pos := i/8, i%8
	specs := warmBenchBase()
	specs[pos%len(specs)].C += 8 * (pos + 1)
	return OptimizeRequest{
		Layers: specs, Budget: 800, Seed: int64(cycle + 1),
		WarmStart: true,
		Target:    refFitness * 1.02 * warmBenchMacs(specs) / baseMacs,
	}
}

// BenchmarkServeWarmTraffic measures cross-request reuse under
// near-duplicate traffic, the tier's headline scenario. Every request
// asks for a design within 2% of a compute-normalized reference quality
// (time-to-target mode) on a slightly-perturbed workload. "cold"
// (shared tier disabled) must search its way to the target from scratch
// every time; "warm" (the server default plus warm_start) seeds each
// search from the nearest prior result — divisor-snapped onto the
// perturbed dims — and recovers per-layer analyses from the tier, so a
// near-duplicate request stops at its very first generation boundary.
// The warm/cold ratio in BENCH_core.json is the headline near-duplicate
// speedup.
func BenchmarkServeWarmTraffic(b *testing.B) {
	// Reference quality: what a cold full-budget search achieves on the
	// base workload. The serving target asks for 2% of that, scaled per
	// request by workload compute — tight enough that a conservatively
	// seeded cold search needs generations of polish to get there.
	model, err := workload.FromSpecs("warmbench", warmBenchBase())
	if err != nil {
		b.Fatal(err)
	}
	ref, err := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{Budget: 800, Seed: 999})
	if err != nil {
		b.Fatal(err)
	}
	baseMacs := warmBenchMacs(warmBenchBase())
	for _, mode := range []struct {
		name     string
		noShared bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := New(Config{Workers: 1, NoSharedAnalysis: mode.noShared})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()
			// Prime outside the timer: the first warm search has no prior
			// result to seed from, which would understate the steady-state
			// ratio at small -benchtime. (Cold primes too, so both modes
			// time the same stream positions.)
			benchSubmitWait(b, ts.URL, OptimizeRequest{Layers: warmBenchBase(), Budget: 800, Seed: 999, WarmStart: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSubmitWait(b, ts.URL, warmBenchRequest(i, ref.Fitness, baseMacs))
			}
			b.StopTimer()
			if st := s.AnalysisStats(); !mode.noShared {
				b.ReportMetric(float64(st.Hits)/float64(b.N), "sharedhits/op")
			} else if st != (digamma.AnalysisStats{}) {
				b.Fatalf("cold mode used the shared tier: %+v", st)
			}
		})
	}
}

// BenchmarkServeDedup measures a repeat request served entirely from the
// result store — the cost of a cache hit on the serving path.
func BenchmarkServeDedup(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	warm := OptimizeRequest{Model: "ncf", Budget: 200, Seed: 1}
	benchSubmitWait(b, ts.URL, warm)
	body, _ := json.Marshal(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if !st.Deduplicated || st.State != StateDone {
			b.Fatalf("iteration %d not served from store: dedup %v state %s", i, st.Deduplicated, st.State)
		}
	}
	if got := s.DedupHits(); got != uint64(b.N) {
		b.Fatalf("dedup hits %d, want %d", got, b.N)
	}
}

// sweepBase is the batch sweep's base workload: a two-layer GEMM tower,
// small enough that a warm-started search is sub-millisecond but real
// enough that every item still runs the full serving path.
func sweepBase() []workload.LayerSpec {
	return []workload.LayerSpec{
		{Type: "gemm", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1, Name: "sweep_fc0"},
		{Type: "gemm", K: 64, C: 128, Y: 1, X: 1, R: 1, S: 1, Name: "sweep_fc1"},
	}
}

// sweepRequests builds iteration iter of a K-point width sweep — the
// canonical "related searches" shape: K bounded perturbations of one
// base workload, warm-started against the shared tier with a
// compute-normalized target so each item stops at its first generation
// boundary (the PR 8 near-duplicate regime). That puts every search in
// the sub-millisecond range batching targets, where fixed per-request
// cost (HTTP round trips, admission, accept-path append, long-poll)
// rivals the search itself. The per-iteration seed keeps every
// (iter, item) hash distinct, so neither mode ever hits the dedup
// store: both pay for K real searches and the measured gap is pure
// per-request overhead.
func sweepRequests(iter, k int, refFitness, baseMacs float64) []OptimizeRequest {
	reqs := make([]OptimizeRequest, k)
	for i := range reqs {
		specs := sweepBase()
		specs[i%len(specs)].C += 4 * (i + 1)
		reqs[i] = OptimizeRequest{
			Layers: specs, Budget: 100, Seed: int64(iter + 1),
			WarmStart: true,
			Target:    refFitness * 1.05 * warmBenchMacs(specs) / baseMacs,
		}
	}
	return reqs
}

// benchWaitDone long-polls one job ID to a terminal state.
func benchWaitDone(b *testing.B, url, id string) {
	var st Status
	st.ID = id
	for !st.State.Terminal() {
		r, err := http.Get(url + "/v1/jobs/" + st.ID + "?wait=10s")
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != StateDone {
		b.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
}

// BenchmarkServeBatchSweep is the batch-amortization acceptance row: a
// K=32 seed sweep submitted as K independent requests (K admission
// checks, K accept-path store appends, 2K HTTP round trips) versus one
// batch (one admission check, one append, 2 round trips). Both modes are
// submit-all-then-wait-all at equal workers over a real on-disk WAL, so
// the fsync each acceptance pays is the one production pays; the only
// difference between the modes is the submission protocol, so the gap is
// exactly the per-request overhead batching amortizes. bench_guard.sh
// gates independent/batch ns/op ≥ 1.5×.
func BenchmarkServeBatchSweep(b *testing.B) {
	const K = 32
	// Reference quality for the warm-start target: what a cold search
	// achieves on the base workload at the sweep budget.
	model, err := workload.FromSpecs("sweepbench", sweepBase())
	if err != nil {
		b.Fatal(err)
	}
	ref, err := digamma.Optimize(model, digamma.EdgePlatform(), digamma.Options{Budget: 100, Seed: 999})
	if err != nil {
		b.Fatal(err)
	}
	baseMacs := warmBenchMacs(sweepBase())
	for _, mode := range []string{"independent", "batch"} {
		b.Run(mode, func(b *testing.B) {
			store, err := OpenDiskStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Workers: 8, QueueDepth: 2 * K, Store: store, TraceSpans: -1})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()
			// Prime outside the timer so the first warm item has a prior
			// result to seed from (both modes prime identically).
			benchSubmitWait(b, ts.URL, OptimizeRequest{Layers: sweepBase(), Budget: 100, Seed: 999, WarmStart: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqs := sweepRequests(i, K, ref.Fitness, baseMacs)
				if mode == "independent" {
					ids := make([]string, 0, K)
					for _, req := range reqs {
						body, _ := json.Marshal(req)
						resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Fatal(err)
						}
						var st Status
						if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
							b.Fatal(err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusAccepted {
							b.Fatalf("submit: HTTP %d", resp.StatusCode)
						}
						ids = append(ids, st.ID)
					}
					for _, id := range ids {
						benchWaitDone(b, ts.URL, id)
					}
					continue
				}
				body, _ := json.Marshal(BatchRequest{Items: reqs})
				resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var bst BatchStatus
				if err := json.NewDecoder(resp.Body).Decode(&bst); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Fatalf("batch submit: HTTP %d", resp.StatusCode)
				}
				for bst.State != "done" {
					r, err := http.Get(ts.URL + "/v1/batches/" + bst.ID + "?wait=10s")
					if err != nil {
						b.Fatal(err)
					}
					if err := json.NewDecoder(r.Body).Decode(&bst); err != nil {
						b.Fatal(err)
					}
					r.Body.Close()
				}
				if bst.Completed != K {
					b.Fatalf("batch completed %d of %d", bst.Completed, K)
				}
			}
		})
	}
}

// BenchmarkServeMultiTenant measures the fair scheduler's per-job serving
// overhead: four tenants' traffic interleaved through the DRR ring (each
// iteration submits one job for the next tenant in rotation and waits for
// it), against the single-tenant BenchmarkServeOptimize baseline. The row
// pins the cost of tenancy — admission check, deficit accounting, ring
// rotation, per-tenant metrics — on the hot path.
func BenchmarkServeMultiTenant(b *testing.B) {
	s, err := New(Config{
		Workers:       1,
		TenantWeights: map[string]int{"t0": 4, "t1": 2, "t2": 1, "t3": 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSubmitWait(b, ts.URL, OptimizeRequest{
			Model: "ncf", Budget: 200, Seed: int64(i + 1),
			Tenant: fmt.Sprintf("t%d", i%4),
		})
	}
	if n := s.sched.starvedCount(); n != 0 {
		b.Fatalf("starvation guard fired %d times", n)
	}
}
