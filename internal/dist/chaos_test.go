package dist

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"digamma/internal/core"
	"digamma/internal/faults"
)

// chaosSpec is the run the fault-injection tests execute: 4 islands with
// a scout in the mix, migrating often, so every protocol phase (adopt,
// round, rescore, migrant delivery, finalize) is exercised.
func chaosSpec(t *testing.T, seed int64) Spec {
	return testSpec(t, "ncf", seed, func(c *core.Config) {
		c.Islands = 4
		c.MigrateEvery = 2
		c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
	})
}

// TestWorkerLossRecoveredBitIdentical kills one of three workers at
// each kind of request — adopt, a round that delivers nothing, a round
// that delivers the previous boundary's migrants, and a finalize that
// delivers the last boundary's — once as it reads the request and once
// as it writes the ack, and asserts the re-homed run still reproduces the
// in-process result bit for bit. The drop points come from workerOps, so
// they follow the protocol's frame count.
func TestWorkerLossRecoveredBitIdentical(t *testing.T) {
	const budget = 480
	spec := chaosSpec(t, 7)
	ref := runLocal(t, spec, budget)
	segs := segmentsOf(t, spec, budget)
	delivering := slices.IndexFunc(segs, func(s *core.Segment) bool { return s.Boundary }) + 1
	if delivering == 0 || delivering == len(segs) || !segs[len(segs)-1].Boundary {
		t.Fatal("run shape lacks a delivering round or a delivering finalize")
	}
	for _, req := range []struct {
		name string
		op   int // the worker's read of the request
	}{
		{"adopt", workerOps(0) - 1},
		{"plain-round", workerOps(0) + 1},
		{"delivering-round", workerOps(delivering) + 1},
		{"delivering-finalize", workerOps(len(segs)) + 1},
	} {
		for _, op := range []int{req.op, req.op + 1} {
			inj := faults.New(1)
			inj.Set(FaultConn, faults.Knob{Every: op})
			faulty := startWorker(t, WorkerOptions{Workers: 1, Faults: inj})
			w2 := startWorker(t, WorkerOptions{Workers: 1})
			w3 := startWorker(t, WorkerOptions{Workers: 1})
			got := runDist(t, spec, budget, []string{faulty, w2, w3}, nil)
			sameResult(t, fmt.Sprintf("%s/op%d", req.name, op), got, ref)
			if _, fired := inj.Counts(FaultConn); fired != 1 {
				t.Fatalf("%s: conn fault fired %d times at op %d, want once", req.name, fired, op)
			}
		}
	}
}

// TestTornFrameRecoveredBitIdentical: a worker that ships a truncated
// frame mid-run trips the coordinator's CRC check and is treated as
// lost; the run re-homes and stays bit-identical.
func TestTornFrameRecoveredBitIdentical(t *testing.T) {
	spec := chaosSpec(t, 1)
	ref := runLocal(t, spec, 480)
	for _, every := range []int{4, 9} {
		inj := faults.New(1)
		inj.Set(FaultTorn, faults.Knob{Every: every})
		faulty := startWorker(t, WorkerOptions{Workers: 1, Faults: inj})
		w2 := startWorker(t, WorkerOptions{Workers: 1})
		got := runDist(t, spec, 480, []string{faulty, w2}, nil)
		sameResult(t, "torn-frame", got, ref)
	}
}

// TestSlowPeerBitIdentical: injected per-frame delays on one worker
// change wall-clock only — the lockstep protocol never races a slow
// peer against a fast one.
func TestSlowPeerBitIdentical(t *testing.T) {
	spec := chaosSpec(t, 42)
	ref := runLocal(t, spec, 480)
	inj := faults.New(1)
	inj.Set(FaultSlow, faults.Knob{Every: 2, Delay: time.Millisecond})
	slow := startWorker(t, WorkerOptions{Workers: 1, Faults: inj})
	w2 := startWorker(t, WorkerOptions{Workers: 1})
	got := runDist(t, spec, 480, []string{slow, w2}, nil)
	sameResult(t, "slow-peer", got, ref)
	if _, fired := inj.Counts(FaultSlow); fired == 0 {
		t.Fatal("slow fault never fired")
	}
}

// segmentsOf lists the spec's run shape at this budget, simulated on a
// throwaway engine.
func segmentsOf(t *testing.T, spec Spec, budget int) []*core.Segment {
	t.Helper()
	eng, err := spec.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.PlanRun(budget)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.NewSchedule(plan)
	var segs []*core.Segment
	for seg := sched.Next(); seg != nil; seg = sched.Next() {
		segs = append(segs, seg)
	}
	return segs
}

// workerOps counts the frame reads and writes of a worker that owns an
// island in every wave, through the first n segments: hello and adopt,
// then one round request and one ack per segment.
func workerOps(n int) int {
	return 4 + 2*n
}

// dropAt runs the chaos spec over two workers, the first of which drops
// its connection on frame operation op, and returns the result and the
// coordinator log.
func dropAt(t *testing.T, spec Spec, budget, op int, c *Coordinator) (*core.Result, string, error) {
	t.Helper()
	inj := faults.New(1)
	inj.Set(FaultConn, faults.Knob{Every: op})
	c.Workers = []string{startWorker(t, WorkerOptions{Workers: 1, Faults: inj}), startWorker(t, WorkerOptions{Workers: 1})}
	res, logs, err := runCoord(t, spec, budget, c)
	if _, fired := inj.Counts(FaultConn); fired != 1 {
		t.Fatalf("conn fault fired %d times at op %d, want once", fired, op)
	}
	return res, logs, err
}

// TestFinalizeDropRecoveredBitIdentical drops a worker on its finalize
// request: its islands are rebuilt on the survivor by replaying every
// logged segment, then finalized there, bit-identical to the in-process
// run.
func TestFinalizeDropRecoveredBitIdentical(t *testing.T) {
	spec := chaosSpec(t, 7)
	ref := runLocal(t, spec, 480)
	segs := segmentsOf(t, spec, 480)
	got, logs, err := dropAt(t, spec, 480, workerOps(len(segs))+1, &Coordinator{})
	if err != nil {
		t.Fatalf("dist run: %v (log: %s)", err, logs)
	}
	sameResult(t, "finalize-drop", got, ref)
	if want := fmt.Sprintf("replaying %d segments", len(segs)); !strings.Contains(logs, want) {
		t.Errorf("log lacks %q: %s", want, logs)
	}
}

// TestLateDropRecoveredBitIdentical drops a worker after a dozen
// completed segments, so the re-homed islands replay a long log.
func TestLateDropRecoveredBitIdentical(t *testing.T) {
	const budget, done = 1200, 12
	spec := chaosSpec(t, 7)
	ref := runLocal(t, spec, budget)
	segs := segmentsOf(t, spec, budget)
	if len(segs) <= done {
		t.Fatalf("run has %d segments, want > %d", len(segs), done)
	}
	got, logs, err := dropAt(t, spec, budget, workerOps(done)+1, &Coordinator{})
	if err != nil {
		t.Fatalf("dist run: %v (log: %s)", err, logs)
	}
	sameResult(t, "late-drop", got, ref)
	if want := fmt.Sprintf("replaying %d segments", done); !strings.Contains(logs, want) {
		t.Errorf("log lacks %q: %s", want, logs)
	}
}

// TestCorruptLogReplayDiverges flips one byte of a logged export of an
// island on the worker that later drops: the replay's byte-for-byte
// check must fail the run instead of returning a result.
func TestCorruptLogReplayDiverges(t *testing.T) {
	spec := chaosSpec(t, 7)
	flipped := false
	c := &Coordinator{logged: func(exports [][]byte) {
		if flipped {
			return
		}
		if len(exports[0]) == 0 {
			t.Fatal("island 0 exported nothing")
		}
		exports[0][len(exports[0])/2] ^= 1
		flipped = true
	}}
	res, logs, err := dropAt(t, spec, 480, workerOps(3)+1, c)
	if err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("run returned %v, err %v; want a replay divergence (log: %s)", res != nil, err, logs)
	}
}

// TestMigrationBoundaryEquivalence pins the transport seam at its finest
// grain: the in-process ring and the loopback-TCP coordinator must
// observe byte-identical elite exports — every island, every migration
// boundary, genomes included — through the shared OnMigration hook.
func TestMigrationBoundaryEquivalence(t *testing.T) {
	type boundary struct {
		gen     int
		exports [][]core.IndividualState
	}
	capture := func(placement core.Placement, spec Spec) []boundary {
		eng, err := spec.Engine(1)
		if err != nil {
			t.Fatal(err)
		}
		var seen []boundary
		eng.OnMigration = func(gen int, exports [][]core.IndividualState) {
			cp := make([][]core.IndividualState, len(exports))
			for i, sel := range exports {
				cp[i] = append([]core.IndividualState(nil), sel...)
			}
			seen = append(seen, boundary{gen, cp})
		}
		eng.Placement = placement
		if _, err := eng.Run(480); err != nil {
			t.Fatal(err)
		}
		return seen
	}

	for _, seed := range []int64{1, 7} {
		spec := chaosSpec(t, seed)
		ring := capture(nil, spec)
		w1 := startWorker(t, WorkerOptions{Workers: 1})
		w2 := startWorker(t, WorkerOptions{Workers: 1})
		dist := capture(&Coordinator{Spec: spec, Workers: []string{w1, w2}}, spec)

		if len(ring) == 0 {
			t.Fatal("no migration boundaries observed")
		}
		if len(dist) != len(ring) {
			t.Fatalf("seed %d: %d boundaries over TCP, %d in-process", seed, len(dist), len(ring))
		}
		for b := range ring {
			if dist[b].gen != ring[b].gen {
				t.Errorf("seed %d boundary %d: gen %d != %d", seed, b, dist[b].gen, ring[b].gen)
			}
			if !reflect.DeepEqual(dist[b].exports, ring[b].exports) {
				t.Errorf("seed %d boundary %d (gen %d): exports diverge", seed, b, ring[b].gen)
			}
		}
	}
}
