package dist

import (
	"bytes"
	"context"
	"testing"
	"time"

	"digamma/internal/core"
)

// BenchmarkDistIslands is the distributed-search headline: the same
// 8-island search at equal budget, in-process vs sharded over 4 real
// worker processes. EvalDelay stands in for a cost model slow enough to
// be worth distributing (the analytical model is microseconds, so on a
// small CI box transport overhead would swamp any one-machine win) —
// per-eval latency is exactly where wall-clock goes on the big fidelity
// backends. The delay is result-invariant, so bestfit/op must be equal
// across the two rows; bench_guard.sh gates workers4 ≥ DIST_MIN× faster
// and bestfit unchanged.
func BenchmarkDistIslands(b *testing.B) {
	spec := testSpec(b, "ncf", 42, func(c *core.Config) {
		c.Islands = 8
		c.MigrateEvery = 2
		c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
	})
	spec.EvalDelay = 200 * time.Microsecond
	const budget = 800

	run := func(b *testing.B, workers []string) {
		var best float64
		for i := 0; i < b.N; i++ {
			eng, err := spec.Engine(1)
			if err != nil {
				b.Fatal(err)
			}
			if workers != nil {
				eng.Placement = &Coordinator{Spec: spec, Workers: workers}
			}
			res, err := eng.RunContext(context.Background(), budget)
			if err != nil {
				b.Fatal(err)
			}
			best = res.Best.Fitness
		}
		b.ReportMetric(best, "bestfit/op")
	}

	b.Run("single", func(b *testing.B) { run(b, nil) })
	b.Run("workers4", func(b *testing.B) {
		procs := make([]string, 4)
		for i := range procs {
			procs[i], _ = spawnProc(b)
		}
		b.ResetTimer()
		run(b, procs)
	})
}

// boundaryExports runs an 8-island resnet50 search in-process and returns
// every island's elite export at its third migration boundary, as the
// wire carries them, plus the run's migration ring.
func boundaryExports(b *testing.B) ([][]core.IndividualState, []int) {
	spec := testSpec(b, "resnet50", 1, func(c *core.Config) {
		c.Islands = 8
		c.Profiles = []string{"default", "explorer", "exploiter", "scout"}
	})
	eng, err := spec.Engine(1)
	if err != nil {
		b.Fatal(err)
	}
	var exports [][]core.IndividualState
	boundaries := 0
	eng.OnMigration = func(gen int, ex [][]core.IndividualState) {
		if boundaries++; boundaries == 3 {
			exports = ex
		}
	}
	if _, err := eng.Run(4000); err != nil {
		b.Fatal(err)
	}
	if exports == nil {
		b.Fatal("run reached no third migration boundary")
	}
	fresh, err := spec.Engine(1)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fresh.PlanRun(4000)
	if err != nil {
		b.Fatal(err)
	}
	scouts := make([]bool, len(plan.Islands))
	for i, ip := range plan.Islands {
		scouts[i] = ip.Scout
	}
	return exports, core.MigrationRoute(scouts)
}

// BenchmarkBoundaryWire is the wire rung of the distributed ladder: one
// migration boundary of an 8-island resnet50 run on two workers, with no
// search around it. Each worker encodes its binary round ack, carrying
// the islands' exports and the completions of the boundary before; the
// coordinator decodes the acks and forwards the exports in the next
// round requests as deliveries; the workers decode those rounds down to
// the elites they would install. Every frame goes through the real
// framing; wire_B/boundary counts the frame bytes written.
func BenchmarkBoundaryWire(b *testing.B) {
	const workers = 2
	exports, route := boundaryExports(b)
	k := len(exports)
	hist := make([]float64, core.DefaultMigrateEvery)
	owned := make([][]int, workers)
	for id := 0; id < k; id++ {
		owned[id%workers] = append(owned[id%workers], id)
	}
	var wire bytes.Buffer
	fc := &frameConn{rw: pipeConn{Reader: &wire, Writer: &wire}}
	written := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		written = 0
		for _, own := range owned {
			ack := roundAck{Seq: 1}
			for _, id := range own {
				ack.Completions = append(ack.Completions, core.ShardReport{Island: id, Gen: 5, Samples: 240})
				ack.Reports = append(ack.Reports, core.ShardReport{Island: id, Gen: 9, Samples: 400, Hist: hist, Exports: core.AppendStates(nil, exports[id])})
			}
			if err := fc.writeMsg(mtRoundAck, &ack); err != nil {
				b.Fatal(err)
			}
		}
		written += wire.Len()
		logged := make([][]byte, k)
		for range owned {
			var ack roundAck
			if err := fc.expect(mtRoundAck, &ack); err != nil {
				b.Fatal(err)
			}
			for _, rep := range ack.Reports {
				logged[rep.Island] = rep.Exports
			}
		}
		inbox := core.Inboxes(route, logged)
		for _, own := range owned {
			msg := roundMsg{Seq: 2, IDs: own, Bodies: len(hist), Boundary: true, Deliveries: deliveries(own, inbox)}
			if err := fc.writeMsg(mtRound, &msg); err != nil {
				b.Fatal(err)
			}
		}
		written += wire.Len()
		for range owned {
			var msg roundMsg
			if err := fc.expect(mtRound, &msg); err != nil {
				b.Fatal(err)
			}
			for _, d := range msg.Deliveries {
				for _, batch := range d.Batches {
					if _, err := core.DecodeStates(batch.Elites); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.ReportMetric(float64(written), "wire_B/boundary")
}
