package core

import (
	"testing"
	"time"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/workload"
)

// BenchmarkGeneration is the ladder's one-generation rung: a single
// breedEvaluate step — breed the brood on the island's RNG stream and
// score it — on a fresh population. Run it at -cpu 1,2: at one core the
// step takes the serial path; with more, the island's evaluation crew
// scores children while the rest of the brood is still being bred.
//
// Each iteration clears the evaluation cache (no iteration starts warm),
// draws and scores a new seed's initial population, starts the crew and
// runs one untimed generation, so the timed step finds the helpers as a
// run's next generation does: still spinning from the last one. ns/op is
// the timed step alone, read off the clock around it rather than with
// StopTimer/StartTimer, whose memory-statistics read stops the world and
// would park the spinning helpers; B/op and allocs/op cover the whole
// iteration, set-up included.
func BenchmarkGeneration(b *testing.B) {
	for _, name := range []string{"resnet50", "ncf"} {
		b.Run(name, func(b *testing.B) {
			model, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig() // Workers: GOMAXPROCS, as -cpu sets it
			var step time.Duration
			for i := 0; i < b.N; i++ {
				p.Cache.Reset()
				e, err := NewSeeded(p, cfg, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				islands, err := e.buildIslands(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				is := islands[0]
				initial := is.initialGenomes()
				evs, err := is.evaluateBatch(initial, nil, nil, cfg.Workers)
				if err != nil {
					b.Fatal(err)
				}
				is.install(0, initial, evs)
				c := newCrew(cfg.Workers - 1)
				for gen := 0; gen < 2; gen++ {
					is.begin()
					t0 := time.Now()
					evs, err := is.breedEvaluate(c, 1)
					if gen == 1 {
						step += time.Since(t0)
					}
					if err != nil {
						b.Fatal(err)
					}
					is.install(is.elites, is.children[:len(evs)], evs)
				}
				c.stop()
			}
			b.ReportMetric(float64(step.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}
