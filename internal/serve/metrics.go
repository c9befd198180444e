package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"digamma"
	"digamma/internal/obs"
	"digamma/internal/stats"
)

// hitRate is Hits / (Hits + Misses), 0 before any lookup.
func hitRate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// recordLatency folds one completed search's wall-clock seconds into the
// cumulative per-backend histogram (all-time, for /metrics) and the
// recent-latency ring (a bounded window behind /healthz's p50/p95 and the
// run report's recency view). The ring overwrites its oldest slot in
// place — O(1) per completion, where the old window shifted 4096 floats
// with a copy on every finished search.
func (s *Server) recordLatency(seconds float64, backend string) {
	if h := s.latHist[backend]; h != nil {
		h.Observe(seconds)
	}
	const window = 4096
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if len(s.latencies) < window {
		s.latencies = append(s.latencies, seconds)
		return
	}
	s.latencies[s.latHead] = seconds
	s.latHead = (s.latHead + 1) % window
}

// latencyQuantiles snapshots p50/p95 over the window (NaN-free: zeros
// before the first completion).
func (s *Server) latencyQuantiles() (p50, p95 float64, count int) {
	s.latMu.Lock()
	xs := append([]float64(nil), s.latencies...)
	s.latMu.Unlock()
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.95), len(xs)
}

// DedupHits reports how many submissions were served by an existing job.
func (s *Server) DedupHits() uint64 { return s.dedupHits.Load() }

// Submitted reports total POST /v1/optimize submissions accepted for
// processing or deduplicated.
func (s *Server) Submitted() uint64 { return s.submitted.Load() }

// AnalysisStats snapshots the shared analysis tier's counters (zero when
// the tier is disabled via Config.NoSharedAnalysis).
func (s *Server) AnalysisStats() digamma.AnalysisStats {
	if s.analysis == nil {
		return digamma.AnalysisStats{}
	}
	return s.analysis.Stats()
}

// handleMetrics renders the service gauges/counters in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateDegraded: 0,
		StateFailed: 0, StateCancelled: 0,
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		states[j.State()]++
	}
	s.mu.Unlock()

	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP digammad_build_info Build metadata; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE digammad_build_info gauge\n")
	fmt.Fprintf(w, "digammad_build_info{version=%q,go_version=%q} 1\n", buildVersion(), runtime.Version())
	fmt.Fprintf(w, "# HELP digammad_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE digammad_uptime_seconds gauge\n")
	fmt.Fprintf(w, "digammad_uptime_seconds %g\n", time.Since(s.started).Seconds())
	fmt.Fprintf(w, "# HELP digammad_queue_depth Jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE digammad_queue_depth gauge\n")
	fmt.Fprintf(w, "digammad_queue_depth %d\n", s.queueDepth())
	fmt.Fprintf(w, "# HELP digammad_jobs Jobs in the store by state.\n")
	fmt.Fprintf(w, "# TYPE digammad_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateDegraded, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "digammad_jobs{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "# HELP digammad_submitted_total Optimize submissions accepted or deduplicated.\n")
	fmt.Fprintf(w, "# TYPE digammad_submitted_total counter\n")
	fmt.Fprintf(w, "digammad_submitted_total %d\n", s.submitted.Load())
	fmt.Fprintf(w, "# HELP digammad_dedup_hits_total Submissions served by an existing job.\n")
	fmt.Fprintf(w, "# TYPE digammad_dedup_hits_total counter\n")
	fmt.Fprintf(w, "digammad_dedup_hits_total %d\n", s.dedupHits.Load())
	fmt.Fprintf(w, "# HELP digammad_rejected_total Submissions rejected because the queue was full.\n")
	fmt.Fprintf(w, "# TYPE digammad_rejected_total counter\n")
	fmt.Fprintf(w, "digammad_rejected_total %d\n", s.rejected.Load())
	fmt.Fprintf(w, "# HELP digammad_evalcache_hits_total Evaluation-cache hits across completed searches.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalcache_hits_total counter\n")
	fmt.Fprintf(w, "digammad_evalcache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# HELP digammad_evalcache_misses_total Evaluation-cache misses across completed searches.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalcache_misses_total counter\n")
	fmt.Fprintf(w, "digammad_evalcache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# HELP digammad_evalcache_hit_rate Aggregate evaluation-cache hit rate.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalcache_hit_rate gauge\n")
	fmt.Fprintf(w, "digammad_evalcache_hit_rate %g\n", hitRate(hits, misses))
	ast := s.AnalysisStats()
	fmt.Fprintf(w, "# HELP digammad_analysis_hits_total Shared-analysis-tier hits across all jobs (cross-request reuse).\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_hits_total counter\n")
	fmt.Fprintf(w, "digammad_analysis_hits_total %d\n", ast.Hits)
	fmt.Fprintf(w, "# HELP digammad_analysis_misses_total Shared-analysis-tier misses across all jobs.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_misses_total counter\n")
	fmt.Fprintf(w, "digammad_analysis_misses_total %d\n", ast.Misses)
	fmt.Fprintf(w, "# HELP digammad_analysis_inserts_total Fresh per-layer analyses published to the shared tier.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_inserts_total counter\n")
	fmt.Fprintf(w, "digammad_analysis_inserts_total %d\n", ast.Inserts)
	fmt.Fprintf(w, "# HELP digammad_analysis_hit_rate Shared-analysis-tier hit rate.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_hit_rate gauge\n")
	fmt.Fprintf(w, "digammad_analysis_hit_rate %g\n", ast.HitRate())
	fmt.Fprintf(w, "# HELP digammad_analysis_entries Resident shared-tier entries.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_entries gauge\n")
	fmt.Fprintf(w, "digammad_analysis_entries %d\n", ast.Entries)
	fmt.Fprintf(w, "# HELP digammad_analysis_loaded Entries recovered from disk segments at startup.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_loaded gauge\n")
	fmt.Fprintf(w, "digammad_analysis_loaded %d\n", ast.Loaded)
	fmt.Fprintf(w, "# HELP digammad_analysis_bytes Resident shared-tier bytes, encoded as on disk; bounded by the store's budget.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_bytes gauge\n")
	fmt.Fprintf(w, "digammad_analysis_bytes %d\n", ast.Bytes)
	fmt.Fprintf(w, "# HELP digammad_analysis_evicted_total Shared-tier entries dropped with their generation under the byte budget.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_evicted_total counter\n")
	fmt.Fprintf(w, "digammad_analysis_evicted_total %d\n", ast.Evicted)
	fmt.Fprintf(w, "# HELP digammad_analysis_segments On-disk analysis-store segment files (0 when memory-only).\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_segments gauge\n")
	fmt.Fprintf(w, "digammad_analysis_segments %d\n", ast.Segments)
	fmt.Fprintf(w, "# HELP digammad_analysis_results Warm-start result records in the index.\n")
	fmt.Fprintf(w, "# TYPE digammad_analysis_results gauge\n")
	fmt.Fprintf(w, "digammad_analysis_results %d\n", ast.Results)
	fmt.Fprintf(w, "# HELP digammad_delta_evals_total Candidates scored by the dirty-layer delta path across completed searches.\n")
	fmt.Fprintf(w, "# TYPE digammad_delta_evals_total counter\n")
	fmt.Fprintf(w, "digammad_delta_evals_total %d\n", s.deltaEvals.Load())
	fmt.Fprintf(w, "# HELP digammad_delta_layers_reused_total Per-layer analyses cloned from breeding parents instead of recomputed.\n")
	fmt.Fprintf(w, "# TYPE digammad_delta_layers_reused_total counter\n")
	fmt.Fprintf(w, "digammad_delta_layers_reused_total %d\n", s.layersReused.Load())
	// One load per counter, reuses before gets: runJob adds gets first,
	// so this order guarantees gets ≥ reuses and the derived rate can
	// never underflow mid-scrape.
	poolReuses := s.poolReuses.Load()
	poolGets := s.poolGets.Load()
	fmt.Fprintf(w, "# HELP digammad_evalpool_gets_total Evaluation-buffer acquisitions across completed searches.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalpool_gets_total counter\n")
	fmt.Fprintf(w, "digammad_evalpool_gets_total %d\n", poolGets)
	fmt.Fprintf(w, "# HELP digammad_evalpool_reuses_total Evaluation-buffer acquisitions served by recycling.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalpool_reuses_total counter\n")
	fmt.Fprintf(w, "digammad_evalpool_reuses_total %d\n", poolReuses)
	fmt.Fprintf(w, "# HELP digammad_evalpool_reuse_rate Aggregate evaluation-pool reuse rate.\n")
	fmt.Fprintf(w, "# TYPE digammad_evalpool_reuse_rate gauge\n")
	fmt.Fprintf(w, "digammad_evalpool_reuse_rate %g\n",
		hitRate(poolReuses, poolGets-poolReuses))
	fmt.Fprintf(w, "# HELP digammad_jobs_recovered_total Incomplete jobs re-enqueued from the store at startup.\n")
	fmt.Fprintf(w, "# TYPE digammad_jobs_recovered_total counter\n")
	fmt.Fprintf(w, "digammad_jobs_recovered_total %d\n", s.jobsRecovered.Load())
	fmt.Fprintf(w, "# HELP digammad_checkpoints_written_total Engine checkpoints persisted to the store.\n")
	fmt.Fprintf(w, "# TYPE digammad_checkpoints_written_total counter\n")
	fmt.Fprintf(w, "digammad_checkpoints_written_total %d\n", s.checkpointsWritten.Load())
	fmt.Fprintf(w, "# HELP digammad_panics_recovered_total Worker panics isolated to their own job.\n")
	fmt.Fprintf(w, "# TYPE digammad_panics_recovered_total counter\n")
	fmt.Fprintf(w, "digammad_panics_recovered_total %d\n", s.panicsRecovered.Load())
	fmt.Fprintf(w, "# HELP digammad_jobs_degraded_total Jobs finished best-effort at their wall-clock deadline.\n")
	fmt.Fprintf(w, "# TYPE digammad_jobs_degraded_total counter\n")
	fmt.Fprintf(w, "digammad_jobs_degraded_total %d\n", s.jobsDegraded.Load())
	fmt.Fprintf(w, "# HELP digammad_store_errors_total Store writes that failed (WAL, result or checkpoint).\n")
	fmt.Fprintf(w, "# TYPE digammad_store_errors_total counter\n")
	fmt.Fprintf(w, "digammad_store_errors_total %d\n", s.storeErrors.Load())
	// Histogram families. Label sets are fixed at construction (every
	// backend/phase/op renders on every scrape, zero or not) and iterated
	// sorted, so scrape-to-scrape output is stable.
	writeHistFamily(w, "digammad_search_latency_seconds",
		"Completed-search wall-clock latency by cost-model backend.", "backend", s.latHist)
	writeHistFamily(w, "digammad_phase_seconds",
		"Engine phase-span durations across traced jobs.", "phase", s.phaseHist)
	writeHistFamily(w, "digammad_store_io_seconds",
		"Store write latencies by operation (WAL append, checkpoint, result, report).", "op", s.ioHist)
	// Per-tenant families last: bounded-cardinality label sets (see
	// tenantRegistry) that only grow up to the cap, never churn.
	s.writeTenantMetrics(w)
}

// writeHistFamily renders one labeled histogram family: HELP/TYPE once,
// then each label value's _bucket/_sum/_count series in sorted order.
func writeHistFamily(w http.ResponseWriter, name, help, label string, hists map[string]*obs.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		hists[k].WritePromSeries(w, name, fmt.Sprintf("%s=%q", label, k))
	}
}

// buildVersion reports the main module's version as baked in by the Go
// toolchain ("(devel)" for a plain go build of a work tree).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
