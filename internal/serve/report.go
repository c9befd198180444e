package serve

import (
	"errors"
	"net/http"
	"time"

	"digamma/internal/obs"
)

// JobReport is the structured run report served by GET
// /v1/jobs/{id}/report and persisted as report/<id>.json: the obs-layer
// phase/operator/island breakdown wrapped with job identity, measured
// wall-clock and the effectiveness counters the search reported
// (evaluation cache, delta path, buffer pool).
type JobReport struct {
	ID          string `json:"id"`
	RequestHash string `json:"request_hash"`
	State       State  `json:"state"`
	Model       string `json:"model"`
	Platform    string `json:"platform"`
	Budget      int    `json:"budget"`
	Seed        int64  `json:"seed"`
	Fidelity    string `json:"fidelity"`

	// WallSeconds is the measured started→finished wall-clock (0 while
	// running); the report's phase breakdown sums to the search span,
	// which this bounds from above (queue wait excluded).
	WallSeconds float64 `json:"wall_seconds"`

	Search obs.RunReport `json:"search"`

	// Effectiveness of the engine's reuse machinery over the whole job.
	CacheHitRate  float64 `json:"cache_hit_rate"`
	DeltaEvals    uint64  `json:"delta_evals"`
	LayersReused  uint64  `json:"layers_reused"`
	PoolReuseRate float64 `json:"pool_reuse_rate"`
}

// buildReport reduces a job's flight recorder and counters to its report
// in the given state. A zero finished time measures the wall-clock up to
// now: the live, partial view of a running job.
func (s *Server) buildReport(j *Job, state State, finished time.Time) *JobReport {
	rep := &JobReport{
		ID:          j.ID,
		RequestHash: j.Hash,
		State:       state,
		Model:       j.spec.model.Name,
		Platform:    j.spec.req.Platform,
		Budget:      j.spec.req.Budget,
		Seed:        j.spec.req.Seed,
		Fidelity:    j.spec.req.Fidelity,
		Search:      obs.BuildReport(j.trace.Snapshot()),

		CacheHitRate:  hitRate(j.cacheHits.Load(), j.cacheMisses.Load()),
		DeltaEvals:    j.deltaEvals.Load(),
		LayersReused:  j.layersReused.Load(),
		PoolReuseRate: hitRate(j.poolReuses.Load(), j.poolGets.Load()-j.poolReuses.Load()),
	}
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	if !started.IsZero() {
		if finished.IsZero() {
			finished = time.Now()
		}
		rep.WallSeconds = finished.Sub(started).Seconds()
	}
	return rep
}

// handleReport serves a job's run report: the terminal report when built,
// a live partial view while the job runs, or the persisted report for a
// job recovered terminal after a restart.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if rep := j.Report(); rep != nil {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	if j.trace != nil && j.State() == StateRunning {
		writeJSON(w, http.StatusOK, s.buildReport(j, StateRunning, time.Time{}))
		return
	}
	if data, err := s.store.LoadReport(j.ID); err == nil && len(data) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	writeError(w, http.StatusNotFound, errors.New("no report for job (tracing disabled, or job not yet run)"))
}

// handleTrace exports a job's flight recorder as Chrome trace_event JSON
// (load it in chrome://tracing or Perfetto; see docs/trace-format.md).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusNotFound, errors.New("no trace for job (tracing disabled, or recorder did not survive a restart)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteTraceEvents(w, j.trace.Snapshot())
}
