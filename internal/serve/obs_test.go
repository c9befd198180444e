package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"digamma/internal/obs"
)

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestReportPhaseSum is the observability acceptance gate: a finished
// job's report must account for its wall-clock — the phase breakdown sums
// to the search span exactly (the synthesized "other" row absorbs
// unattributed time), and the search span covers the measured wall-clock
// to within 10%.
func TestReportPhaseSum(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	st, _ := submit(t, url, OptimizeRequest{Model: "resnet18", Budget: 2000, Seed: 7})
	waitState(t, url, st.ID, StateDone, time.Minute)

	code, data := getBody(t, url+"/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: HTTP %d: %s", code, data)
	}
	var rep JobReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.ID != st.ID || rep.State != StateDone || rep.Model != "resnet18" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if len(rep.Search.Phases) == 0 {
		t.Fatal("report has no phase breakdown")
	}
	var sum float64
	for _, p := range rep.Search.Phases {
		if p.Count <= 0 || p.Seconds < 0 {
			t.Fatalf("degenerate phase row %+v", p)
		}
		sum += p.Seconds
	}
	if d := math.Abs(sum - rep.Search.SearchSeconds); d > 1e-9 {
		t.Errorf("phase sum %.9f != search span %.9f (diff %g)", sum, rep.Search.SearchSeconds, d)
	}
	if rep.WallSeconds <= 0 {
		t.Fatalf("wall seconds %g, want > 0", rep.WallSeconds)
	}
	if rel := math.Abs(sum-rep.WallSeconds) / rep.WallSeconds; rel > 0.10 {
		t.Errorf("phase sum %.6fs vs wall %.6fs: off by %.1f%%, want ≤ 10%%",
			sum, rep.WallSeconds, rel*100)
	}
	if len(rep.Search.Operators) == 0 {
		t.Error("report has no operator table")
	}
	if len(rep.Search.Islands) != 1 {
		t.Errorf("island table has %d rows, want 1", len(rep.Search.Islands))
	}
	if len(rep.Search.IO) == 0 {
		t.Error("report has no store-I/O table")
	}
	if rep.CacheHitRate <= 0 || rep.DeltaEvals == 0 {
		t.Errorf("effectiveness counters empty: hit=%g delta=%d", rep.CacheHitRate, rep.DeltaEvals)
	}
}

// traceEvent mirrors the Chrome trace_event fields the exporter emits.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestTraceEndpoint(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})
	st, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 400, Seed: 3, Islands: 2})
	waitState(t, url, st.ID, StateDone, time.Minute)

	code, data := getBody(t, url+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d: %s", code, data)
	}
	var doc struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	var xs, metas int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			names[ev.Name] = true
			if ev.Dur < 0 || ev.TS < 0 {
				t.Errorf("negative span timing: %+v", ev)
			}
		case "M":
			metas++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if xs == 0 || metas == 0 {
		t.Fatalf("trace has %d X events and %d M events, want both > 0", xs, metas)
	}
	for _, want := range []string{obs.PhaseSearch, obs.PhaseQueueWait, obs.PhaseBreed,
		obs.PhaseEvaluate, obs.PhaseMigrate, obs.IOWALAppend, obs.IOResult} {
		if !names[want] {
			t.Errorf("trace missing %q spans", want)
		}
	}

	if code, _ := getBody(t, url+"/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job trace: HTTP %d, want 404", code)
	}
}

func TestTraceDisabled(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1, TraceSpans: -1})
	st, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 5})
	waitState(t, url, st.ID, StateDone, time.Minute)
	if code, _ := getBody(t, url+"/v1/jobs/"+st.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace with tracing off: HTTP %d, want 404", code)
	}
	if code, _ := getBody(t, url+"/v1/jobs/"+st.ID+"/report"); code != http.StatusNotFound {
		t.Errorf("report with tracing off: HTTP %d, want 404", code)
	}
}

// scrapeFamilies parses one Prometheus text scrape into family → type and
// series key → value, failing on malformed exposition (the promlint-style
// checks: HELP/TYPE pairing, known family for every sample, parseable
// values).
func scrapeFamilies(t *testing.T, text string) (types map[string]string, series map[string]float64) {
	t.Helper()
	types = map[string]string{}
	help := map[string]bool{}
	series = map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP without help text: %q", line)
			}
			help[f[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if !help[f[2]] {
				t.Errorf("TYPE before HELP for %s", f[2])
			}
			if _, dup := types[f[2]]; dup {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			types[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("sample without value: %q", line)
			}
			key := line[:sp]
			val, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(key, "}") {
					t.Fatalf("unclosed label set: %q", line)
				}
				name = name[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if fam := strings.TrimSuffix(name, suf); fam != name && types[fam] == "histogram" {
					base = fam
				}
			}
			if _, ok := types[base]; !ok {
				t.Errorf("sample %q has no TYPE declaration", name)
			}
			if _, dup := series[key]; dup {
				t.Errorf("duplicate series %q", key)
			}
			series[key] = val
		}
	}
	return types, series
}

// TestMetricsLint scrapes /metrics twice around a completed job and checks
// the exposition is well-formed, counters are monotonic, and the label
// sets are identical across scrapes (no series churn). A tenant-tagged
// warm-up job registers a tenant label before the first scrape, so the
// churn and monotonicity checks cover the per-tenant families too.
func TestMetricsLint(t *testing.T) {
	_, url := testServer(t, Config{Workers: 1})

	warm, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 8, Tenant: "linty"})
	waitState(t, url, warm.ID, StateDone, time.Minute)

	_, first := getBody(t, url+"/metrics")
	types1, series1 := scrapeFamilies(t, string(first))

	st, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 9, Tenant: "linty"})
	waitState(t, url, st.ID, StateDone, time.Minute)

	_, second := getBody(t, url+"/metrics")
	types2, series2 := scrapeFamilies(t, string(second))

	if len(types1) != len(types2) {
		t.Errorf("family count changed across scrapes: %d vs %d", len(types1), len(types2))
	}
	for fam, typ := range types1 {
		if types2[fam] != typ {
			t.Errorf("family %s type changed %q → %q", fam, typ, types2[fam])
		}
	}
	keys := func(m map[string]float64) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	k1, k2 := keys(series1), keys(series2)
	if fmt.Sprint(k1) != fmt.Sprint(k2) {
		t.Errorf("series label sets changed across scrapes:\n%v\nvs\n%v", k1, k2)
	}
	for key, before := range series1 {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		monotonic := types1[name] == "counter" ||
			strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_sum")
		if monotonic && series2[key] < before {
			t.Errorf("series %s went backwards: %g → %g", key, before, series2[key])
		}
	}
	if series2[`digammad_search_latency_seconds_count{backend="analytical"}`] != 2 {
		t.Errorf("latency histogram did not count the completed jobs")
	}
	for fam, typ := range map[string]string{
		"digammad_analysis_rotations_total":      "counter",
		"digammad_analysis_rotate_seconds_total": "counter",
		"digammad_analysis_rotate_seconds_max":   "gauge",
	} {
		if types2[fam] != typ {
			t.Errorf("family %s has type %q, want %q", fam, types2[fam], typ)
		}
		if _, ok := series2[fam]; !ok {
			t.Errorf("series %s missing from /metrics", fam)
		}
	}
	evals := `digammad_tenant_evals_total{tenant="linty"}`
	if _, ok := series2[evals]; !ok {
		t.Errorf("per-tenant eval counter missing from /metrics")
	}
	if series2[evals] <= series1[evals] {
		t.Errorf("tenant eval counter did not advance with the completed job: %g → %g",
			series1[evals], series2[evals])
	}
}

func TestReadyzDrain(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1})

	code, data := getBody(t, url+"/readyz")
	if code != http.StatusOK || !strings.Contains(string(data), "ready") {
		t.Fatalf("readyz before drain: HTTP %d %s, want 200 ready", code, data)
	}
	if code, _ := getBody(t, url+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d, want 200", code)
	}

	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	code, data = getBody(t, url+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Fatalf("readyz after drain: HTTP %d %s, want 503 draining", code, data)
	}
	// Liveness stays green through a drain — only readiness flips.
	if code, _ := getBody(t, url+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain: HTTP %d, want 200", code)
	}
}

// TestReportSurvivesRestart: the terminal report persisted through the
// store keeps serving after a crash/restart, when the in-memory flight
// recorder is gone.
func TestReportSurvivesRestart(t *testing.T) {
	store, reopen := diskStore(t)
	_, url1, crash := durableServer(t, Config{Workers: 1, Store: store})
	st, _ := submit(t, url1, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 11})
	waitState(t, url1, st.ID, StateDone, time.Minute)

	code, live := getBody(t, url1+"/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report before crash: HTTP %d", code)
	}
	crash()

	_, url2, _ := durableServer(t, Config{Workers: 1, Store: reopen()})
	code, recovered := getBody(t, url2+"/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report after restart: HTTP %d: %s", code, recovered)
	}
	var a, b JobReport
	if err := json.Unmarshal(live, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recovered, &b); err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || a.Search.SearchSeconds != b.Search.SearchSeconds ||
		len(a.Search.Phases) != len(b.Search.Phases) {
		t.Fatalf("recovered report diverged:\n%s\nvs\n%s", recovered, live)
	}
}

// TestRecordLatencyRing: past the window the ring overwrites oldest-first
// instead of shifting, and the quantile view tracks the recent window.
func TestRecordLatencyRing(t *testing.T) {
	s, _ := testServer(t, Config{})
	const window = 4096
	for i := 0; i < window+100; i++ {
		s.recordLatency(float64(i), "analytical")
	}
	s.latMu.Lock()
	n, head := len(s.latencies), s.latHead
	// The 100 overflow writes landed on slots 0..99, replacing the 100
	// oldest observations.
	slot0, slot100 := s.latencies[0], s.latencies[100]
	s.latMu.Unlock()
	if n != window {
		t.Fatalf("ring length %d, want %d", n, window)
	}
	if head != 100 {
		t.Fatalf("ring head %d, want 100", head)
	}
	if slot0 != window || slot100 != 100 {
		t.Fatalf("ring contents wrong: slot0=%g (want %d) slot100=%g (want 100)", slot0, window, slot100)
	}
	_, p95, count := s.latencyQuantiles()
	if count != window || p95 < float64(window)*0.9 {
		t.Fatalf("quantiles over ring: count=%d p95=%g", count, p95)
	}
	if got := s.latHist["analytical"].Count(); got != window+100 {
		t.Fatalf("histogram count %d, want %d", got, window+100)
	}
}
