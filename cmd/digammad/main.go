// Command digammad serves DiGamma HW-Mapping co-optimization over HTTP:
// submit searches, stream per-generation progress as Server-Sent Events,
// cancel mid-run, and read results back from the deduplicating job store.
//
//	digammad -addr :8080
//	curl -s localhost:8080/v1/optimize -d '{"model":"resnet18","budget":4000}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -N  localhost:8080/v1/jobs/j000001/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"digamma"
	"digamma/internal/dist"
	"digamma/internal/serve"
)

// parseTenantWeights turns the -tenant-weights flag ("gold=3,silver=1")
// into the scheduler's weight map. Tenants absent from the map weigh 1.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		w, err := strconv.Atoi(val)
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want name=weight, weight >= 1)", kv)
		}
		out[name] = w
	}
	return out, nil
}

// parseTenantCaps turns a cap flag ("8", "gold=32", "8,gold=32,trial=2",
// "8,gold=0") into a default plus per-tenant overrides: a bare integer is
// the default for every tenant, name=value entries override it — an
// explicit 0 override lifts the cap for that tenant while the default
// keeps binding the rest.
func parseTenantCaps(flagName, s string) (int, map[string]int, error) {
	if s == "" {
		return 0, nil, nil
	}
	def, sawDef := 0, false
	var per map[string]int
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			v, err := strconv.Atoi(kv)
			if err != nil || v < 0 {
				return 0, nil, fmt.Errorf("bad %s entry %q (want a cap >= 0 or tenant=cap)", flagName, kv)
			}
			if sawDef {
				return 0, nil, fmt.Errorf("bad %s %q: more than one default cap", flagName, s)
			}
			def, sawDef = v, true
			continue
		}
		v, err := strconv.Atoi(val)
		if name == "" || err != nil || v < 0 {
			return 0, nil, fmt.Errorf("bad %s entry %q (want tenant=cap, cap >= 0)", flagName, kv)
		}
		if per == nil {
			per = make(map[string]int)
		}
		if _, dup := per[name]; dup {
			return 0, nil, fmt.Errorf("bad %s %q: duplicate tenant %q", flagName, s, name)
		}
		per[name] = v
	}
	return def, per, nil
}

// splitList splits a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// writeAddrFile publishes the bound listen address for whoever spawned us
// (write-then-rename, so a polling reader never sees a torn file).
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runWorker serves the distributed island-search protocol (-worker mode):
// a coordinator digammad dials in, hands this process a shard of islands,
// and drives them in lockstep. SIGINT/SIGTERM closes the listener; any
// in-flight coordinator sessions fail and re-home to surviving workers.
func runWorker(addr, addrFile string, jobs int, logger *slog.Logger) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := writeAddrFile(addrFile, l.Addr().String()); err != nil {
			return err
		}
	}
	logger.Info("digammad worker listening", "addr", l.Addr().String())
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		logger.Info("worker shutting down", "cause", "signal")
		l.Close()
	}()
	return dist.Serve(l, dist.WorkerOptions{
		Workers: jobs,
		Log:     slog.NewLogLogger(logger.Handler(), slog.LevelInfo),
	})
}

// newLogger builds the process logger from the -log-level / -log-format
// flags. All digammad and serve-layer logging goes through it; "json"
// emits one machine-parseable object per line for log shippers.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		worker   = flag.Bool("worker", false, "run as a distributed-search worker: serve the dist island protocol on -addr instead of the HTTP API (see docs/dist-protocol.md)")
		distWk   = flag.String("dist-workers", "", "comma-separated digammad -worker addresses; eligible island searches shard across them, bit-identically to local runs (empty = in-process)")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file once listening (race-free discovery when spawning on port 0)")
		jobs     = flag.Int("jobs", 0, "concurrent search jobs (0 = all cores)")
		queue    = flag.Int("queue", 0, "queued-job bound before submits get 503 (0 = 256)")
		store    = flag.Int("store", 0, "retained terminal jobs before eviction (0 = 1024)")
		maxBud   = flag.Int("max-budget", 0, "per-request sampling-budget cap (0 = 1,000,000)")
		dataDir  = flag.String("data-dir", "", "durable store directory: WAL + results + checkpoints (empty = in-memory only, no crash recovery)")
		ckEvery  = flag.Int("checkpoint-every", 5, "generations between engine checkpoints when -data-dir is set (0 = only recover whole jobs, never mid-search)")
		deadline = flag.Duration("job-deadline", 0, "per-job wall-clock bound; exceeded jobs finish degraded with their best-so-far result (0 = none)")
		anaDir   = flag.String("analysis-dir", "", "shared analysis store directory (empty = <data-dir>/evalstore when -data-dir is set, else memory-only)")
		noShared = flag.Bool("no-shared-analysis", false, "disable the cross-request shared analysis tier (each search then caches only within itself)")
		waitCap  = flag.Duration("wait-cap", 0, "cap on ?wait= long-polls; an expired window returns the current status with 200 (0 = 30s)")
		weights  = flag.String("tenant-weights", "", "per-tenant scheduler weights, e.g. gold=3,silver=1 (absent tenants weigh 1)")
		tJobCap  = flag.String("tenant-cap", "", "per-tenant queued+running job cap, 429 + Retry-After past it: a default and/or tenant=cap overrides, e.g. \"4\" or \"4,gold=16,trial=1\" (empty or 0 = unlimited; an explicit tenant=0 lifts the cap for that tenant)")
		tBudCap  = flag.String("tenant-budget-cap", "", "per-tenant outstanding evaluation-budget cap, 429 above it; same default,tenant=cap form as -tenant-cap")
		quantum  = flag.Int("sched-quantum", 0, "evals replenished per weight unit per scheduling rotation (0 = 2000)")
		maxBatch = flag.Int("max-batch", 0, "max items per POST /v1/batches, 400 above it (0 = 256)")
		tSeries  = flag.Int("tenant-series", 0, "distinct tenant labels on /metrics before aggregation into the overflow label (0 = 32)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (CPU/heap profiling of the serving hot path)")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFmt   = flag.String("log-format", "text", "log encoding: text or json")
		trSpans  = flag.Int("trace-spans", 0, "per-job flight-recorder span capacity (0 = default 4096, negative disables tracing and /trace + /report)")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}

	if *worker {
		if err := runWorker(*addr, *addrFile, *jobs, logger); err != nil {
			fmt.Fprintln(os.Stderr, "digammad: worker:", err)
			os.Exit(1)
		}
		return
	}

	tw, err := parseTenantWeights(*weights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	jcDef, jcPer, err := parseTenantCaps("-tenant-cap", *tJobCap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	bcDef, bcPer, err := parseTenantCaps("-tenant-budget-cap", *tBudCap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	cfg := serve.Config{
		Workers: *jobs, QueueDepth: *queue, StoreLimit: *store, MaxBudget: *maxBud,
		CheckpointEvery: *ckEvery, JobDeadline: *deadline,
		TraceSpans: *trSpans, Log: logger,
		TenantWeights: tw,
		TenantJobCap:  jcDef, TenantJobCaps: jcPer,
		TenantBudgetCap: bcDef, TenantBudgetCaps: bcPer,
		SchedQuantum: *quantum, WaitCap: *waitCap,
		MaxBatchItems: *maxBatch, MaxTenantSeries: *tSeries,
		DistWorkers: splitList(*distWk),
	}
	if *dataDir != "" {
		ds, err := serve.OpenDiskStore(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "digammad: opening data dir:", err)
			os.Exit(1)
		}
		cfg.Store = ds
	}
	// The shared analysis tier persists next to the job store by default,
	// so the warm tier survives restarts whenever durability is on at all;
	// -analysis-dir splits it out (e.g. faster disk), -no-shared-analysis
	// turns cross-request reuse off entirely.
	cfg.NoSharedAnalysis = *noShared
	if dir := *anaDir; !*noShared {
		if dir == "" && *dataDir != "" {
			dir = filepath.Join(*dataDir, "evalstore")
		}
		if dir != "" {
			as, err := digamma.OpenAnalysisStore(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "digammad: opening analysis store:", err)
				os.Exit(1)
			}
			cfg.Analysis = as
			defer as.Close()
			st := as.Stats()
			logger.Info("analysis store open", "dir", dir,
				"loaded", st.Loaded, "evicted", st.Evicted, "results", st.Results)
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	handler := s.Handler()
	if *pprofOn {
		// Profiling endpoints ride the API listener behind an explicit
		// flag: off by default (they expose internals and cost a mutex
		// hit per sample), one flag away when a hot-path regression needs
		// `go tool pprof http://host/debug/pprof/profile` against the
		// serving deployment.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, l.Addr().String()); err != nil {
			fmt.Fprintln(os.Stderr, "digammad:", err)
			os.Exit(1)
		}
	}
	logger.Info("digammad listening", "addr", l.Addr().String())

	srv := &http.Server{Handler: handler}
	// SIGINT/SIGTERM drain gracefully: stop accepting, cancel running
	// searches at their next generation boundary (each emits a final
	// checkpoint into the store), flush the WAL, then close the listener.
	// Draining the server first also unblocks every SSE handler (they
	// select on the server's base context), so Shutdown cannot deadlock
	// behind an open event stream.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Info("draining", "cause", "signal")
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(drainCtx); err != nil {
			logger.Error("drain failed", "err", err)
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
	}()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "digammad:", err)
		os.Exit(1)
	}
	<-done
	logger.Info("drained, exiting")
}
