package dist

import (
	"bytes"
	"context"
	"log"
	"net"
	"strings"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/faults"
	"digamma/internal/workload"
)

// testSpec assembles a Spec for a built-in model at edge resources — the
// same configuration the core island goldens run on.
func testSpec(t testing.TB, model string, seed int64, mutate func(*core.Config)) Spec {
	t.Helper()
	m, err := workload.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]workload.LayerSpec, len(m.Layers))
	for i, l := range m.Layers {
		layers[i] = workload.Spec(l)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg)
	}
	return Spec{
		ModelName: m.Name,
		Layers:    layers,
		Platform:  arch.Edge(),
		Objective: coopt.Latency,
		Config:    cfg,
		Seed:      seed,
	}
}

// startWorker serves the worker protocol on a loopback listener and
// returns its address.
func startWorker(t testing.TB, opts WorkerOptions) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, opts)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// runLocal executes the spec's run in-process (the reference).
func runLocal(t testing.TB, spec Spec, budget int) *core.Result {
	t.Helper()
	eng, err := spec.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDist executes the spec's run through a committed coordinator over
// the given workers; a decline fails the test (the fallback would make
// every comparison pass vacuously).
func runDist(t testing.TB, spec Spec, budget int, workers []string, inj *faults.Injector) *core.Result {
	t.Helper()
	res, logs, err := runCoord(t, spec, budget, &Coordinator{Workers: workers, Faults: inj})
	if err != nil {
		t.Fatalf("dist run: %v (log: %s)", err, logs)
	}
	return res
}

// runCoord runs the spec through c (Spec and Log filled in here) and
// returns the result, the coordinator's log and the run error. A decline
// fails the test.
func runCoord(t testing.TB, spec Spec, budget int, c *Coordinator) (*core.Result, string, error) {
	t.Helper()
	var logBuf bytes.Buffer
	eng, err := spec.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	c.Spec = spec
	c.Log = log.New(&logBuf, "", 0)
	eng.Placement = c
	res, err := eng.RunContext(context.Background(), budget)
	if strings.Contains(logBuf.String(), "declining") {
		t.Fatalf("coordinator declined instead of committing: %s", logBuf.String())
	}
	return res, logBuf.String(), err
}

// sameResult asserts the fields of the determinism contract: everything
// except the cache/pool telemetry, which legitimately depends on how
// islands share a process.
func sameResult(t testing.TB, label string, got, want *core.Result) {
	t.Helper()
	if got.Samples != want.Samples || got.Generations != want.Generations {
		t.Errorf("%s: samples/gens %d/%d, want %d/%d", label, got.Samples, got.Generations, want.Samples, want.Generations)
	}
	if got.Best.Fitness != want.Best.Fitness {
		t.Errorf("%s: best %x, want %x", label, got.Best.Fitness, want.Best.Fitness)
	}
	if got.FullEvals != want.FullEvals || got.PrunedEvals != want.PrunedEvals || got.ScoutEvals != want.ScoutEvals {
		t.Errorf("%s: evals full/pruned/scout %d/%d/%d, want %d/%d/%d", label,
			got.FullEvals, got.PrunedEvals, got.ScoutEvals, want.FullEvals, want.PrunedEvals, want.ScoutEvals)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Errorf("%s: history[%d] = %x, want %x", label, i, got.History[i], want.History[i])
		}
	}
}

// TestLoopbackBitIdentical: a 2-worker loopback run must reproduce the
// in-process result bit for bit, across island counts and a profile mix
// including a scout.
func TestLoopbackBitIdentical(t *testing.T) {
	w1 := startWorker(t, WorkerOptions{Workers: 1})
	w2 := startWorker(t, WorkerOptions{Workers: 1})
	for _, islands := range []int{2, 4} {
		for _, seed := range []int64{1, 7} {
			spec := testSpec(t, "ncf", seed, func(c *core.Config) {
				c.Islands = islands
				c.MigrateEvery = 2
				c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
			})
			ref := runLocal(t, spec, 480)
			got := runDist(t, spec, 480, []string{w1, w2}, nil)
			sameResult(t, spec.ModelName, got, ref)
		}
	}
}

// TestWorkerSurvivesBadIslandIDs: island ids and migrant sources arrive in
// frames, so a round or finalize request naming an island outside the
// run — or delivering a batch from one — must come back as an ack error
// while the session keeps serving: a panic in the session goroutine
// would take down the worker process and every session it serves. So
// must a delivery for an island the request does not list, and a round
// or finalize that leaves an island's pending boundary undelivered.
func TestWorkerSurvivesBadIslandIDs(t *testing.T) {
	spec := testSpec(t, "ncf", 1, func(c *core.Config) {
		c.Islands = 2
		c.MigrateEvery = 2
	})
	const budget = 480
	eng, err := spec.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.ConfigSum()
	plan, err := eng.PlanRun(budget)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	go ServeConn(server, WorkerOptions{Workers: 1})
	fc := &frameConn{rw: client}
	call := func(typ, ackTyp byte, msg, ack any) {
		t.Helper()
		if err := fc.writeMsg(typ, msg); err != nil {
			t.Fatal(err)
		}
		if err := fc.expect(ackTyp, ack); err != nil {
			t.Fatalf("worker stopped serving: %v", err)
		}
	}

	var hello helloAck
	call(mtHello, mtHelloAck, helloMsg{Proto: ProtoVersion, Spec: spec, ConfigSum: sum, Budget: budget}, &hello)
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	var adopted adoptAck
	call(mtAdopt, mtAdoptAck, adoptMsg{Islands: []assignment{{ID: 0, Seed: plan.Islands[0].Seed}}}, &adopted)
	if adopted.Err != "" {
		t.Fatal(adopted.Err)
	}
	for _, id := range []int{2, -1} {
		var round, delivering roundAck
		call(mtRound, mtRoundAck, &roundMsg{Seq: 1, IDs: []int{id}, Bodies: 1}, &round)
		call(mtRound, mtRoundAck, &roundMsg{Seq: 1, IDs: []int{id}, Bodies: 1, Deliveries: []delivery{{ID: id}}}, &delivering)
		var fin finalizeAck
		call(mtFinalize, mtFinalizeAck, finalizeMsg{IDs: []int{id}}, &fin)
		if round.Err == "" || delivering.Err == "" || fin.Err == "" {
			t.Errorf("island %d: round/delivering round/finalize errors %q/%q/%q, want all set", id, round.Err, delivering.Err, fin.Err)
		}
	}
	var boundary roundAck
	call(mtRound, mtRoundAck, &roundMsg{Seq: 2, IDs: []int{0}, Bodies: 2, Boundary: true}, &boundary)
	if boundary.Err != "" || len(boundary.Reports) != 1 {
		t.Fatalf("valid boundary round after bad ids: %q, %d reports", boundary.Err, len(boundary.Reports))
	}
	exports := boundary.Reports[0].Exports
	for _, from := range []int{2, -1} {
		var ack roundAck
		bad := delivery{ID: 0, Batches: []core.MigrantBatch{{From: from, Elites: exports}}}
		call(mtRound, mtRoundAck, &roundMsg{Seq: 3, IDs: []int{0}, Bodies: 1, Deliveries: []delivery{bad}}, &ack)
		if ack.Err == "" {
			t.Errorf("batch from island %d accepted", from)
		}
	}
	for _, c := range []struct {
		name string
		msg  *roundMsg
	}{
		{"unlisted delivery", &roundMsg{Seq: 4, Bodies: 1, Deliveries: []delivery{{ID: 0}}}},
		{"missing delivery", &roundMsg{Seq: 4, IDs: []int{0}, Bodies: 1}},
	} {
		var ack roundAck
		call(mtRound, mtRoundAck, c.msg, &ack)
		if ack.Err == "" || len(ack.Completions)+len(ack.Reports) > 0 {
			t.Errorf("round with a %s: error %q, %d completions, %d reports; want an error alone", c.name, ack.Err, len(ack.Completions), len(ack.Reports))
		}
	}
	var unlisted, missing finalizeAck
	call(mtFinalize, mtFinalizeAck, finalizeMsg{Deliveries: []delivery{{ID: 0}}}, &unlisted)
	call(mtFinalize, mtFinalizeAck, finalizeMsg{IDs: []int{0}}, &missing)
	if unlisted.Err == "" || missing.Err == "" {
		t.Errorf("finalize with an unlisted/missing delivery: errors %q/%q, want both set", unlisted.Err, missing.Err)
	}
	var done roundAck
	call(mtRound, mtRoundAck, &roundMsg{Seq: 5, IDs: []int{0}, Bodies: 1, Deliveries: []delivery{{ID: 0, Batches: []core.MigrantBatch{{From: 1, Elites: exports}}}}}, &done)
	if done.Err != "" || len(done.Completions) != 1 || len(done.Reports) != 1 {
		t.Errorf("valid delivering round after bad requests: %q, %d completions, %d reports", done.Err, len(done.Completions), len(done.Reports))
	}
}
