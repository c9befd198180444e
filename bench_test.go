// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus micro-benchmarks of the substrates. The figure
// benchmarks regenerate the corresponding table at a reduced sampling
// budget per iteration (the table *shape* is budget-independent; use
// cmd/experiments -budget 40000 for the paper-scale protocol).
package digamma

import (
	"fmt"
	"math/rand"
	"testing"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/core"
	"digamma/internal/cost"
	"digamma/internal/figures"
	"digamma/internal/mapping"
	"digamma/internal/obs"
	"digamma/internal/opt"
	"digamma/internal/schemes"
	"digamma/internal/workload"
)

// benchBudget is the per-algorithm sampling budget used inside the figure
// benchmarks.
const benchBudget = 120

// --- Fig. 5: algorithm comparison (latency + latency-area, 2 platforms) ---

func benchmarkFig5(b *testing.B, platform arch.Platform) {
	for i := 0; i < b.N; i++ {
		lat, lap, err := figures.Fig5(platform, figures.Options{Budget: benchBudget, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := lat.Row("GeoMean"); !ok {
			b.Fatal("fig5 latency table incomplete")
		}
		if _, ok := lap.Row("GeoMean"); !ok {
			b.Fatal("fig5 latency-area table incomplete")
		}
	}
}

func BenchmarkFig5Edge(b *testing.B)  { benchmarkFig5(b, arch.Edge()) }
func BenchmarkFig5Cloud(b *testing.B) { benchmarkFig5(b, arch.Cloud()) }

// --- Fig. 6: scheme comparison (HW-opt vs Mapping-opt vs co-opt) ---

func benchmarkFig6(b *testing.B, platform arch.Platform) {
	for i := 0; i < b.N; i++ {
		tb, err := figures.Fig6(platform, figures.Options{Budget: benchBudget, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := tb.Row("GeoMean"); !ok {
			b.Fatal("fig6 table incomplete")
		}
	}
}

func BenchmarkFig6Edge(b *testing.B)  { benchmarkFig6(b, arch.Edge()) }
func BenchmarkFig6Cloud(b *testing.B) { benchmarkFig6(b, arch.Cloud()) }

// --- Fig. 7: MnasNet solution walk-through ---

func BenchmarkFig7Mnasnet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sols, _, err := figures.Fig7(figures.Options{Budget: benchBudget, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(sols) != 3 {
			b.Fatalf("%d solutions", len(sols))
		}
	}
}

// --- Fig. 3 substrate: encode/decode and the cost model ---

func BenchmarkCostAnalyze(b *testing.B) {
	layer := workload.Layer{Name: "conv", Type: workload.Conv,
		K: 128, C: 64, Y: 28, X: 28, R: 3, S: 3}
	hw := arch.HW{Fanouts: []int{16, 16}, BufBytes: []int64{2 << 10, 256 << 10}}
	rng := rand.New(rand.NewSource(1))
	m := mapping.Random(rng, layer, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.Analyze(hw, m, layer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpaceDecode(b *testing.B) {
	model, err := workload.ByName("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, p.Space.Dim())
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Space.Decode(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures one full design-point evaluation (decode +
// derived buffers + constraint check) per model of the zoo — the paper's
// sampling-cost unit.
func BenchmarkEvaluate(b *testing.B) {
	for _, name := range workload.ModelNames {
		b.Run(name, func(b *testing.B) {
			model, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			g := p.Space.Random(rng, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Evaluate(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluatePhysical is BenchmarkEvaluate on the physical fidelity
// tier: the same resnet18 design point scored with NoC/DRAM-derived
// bandwidths and energies — the per-sample cost of the
// physical-interconnect co-optimization scenario.
func BenchmarkEvaluatePhysical(b *testing.B) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		b.Fatal(err)
	}
	p = p.WithBackend(cost.DefaultPhysical())
	rng := rand.New(rand.NewSource(3))
	g := p.Space.Random(rng, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizers measures raw sample throughput of every baseline
// algorithm on a cheap objective (algorithm overhead per sample).
func BenchmarkOptimizers(b *testing.B) {
	for _, name := range opt.BaselineNames {
		b.Run(name, func(b *testing.B) {
			o, err := opt.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				o.Minimize(opt.Sphere, 24, 500, rng)
			}
		})
	}
}

// coldProblem builds a fresh edge-latency problem for one search
// iteration with the timer stopped. Every search benchmark searches a
// freshly built problem — as a served job does — so no iteration starts
// from an evaluation cache an earlier one warmed, and building the
// problem is not timed.
func coldProblem(b *testing.B, model workload.Model) *coopt.Problem {
	b.StopTimer()
	defer b.StartTimer()
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDiGammaSearch measures the genetic engine end-to-end on the
// smallest and a mid-size model, each iteration on a cold problem.
func BenchmarkDiGammaSearch(b *testing.B) {
	for _, name := range []string{"ncf", "resnet18"} {
		b.Run(name, func(b *testing.B) {
			model, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := coldProblem(b, model)
				if _, err := core.Optimize(p, 400, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiGammaSearchTraced mirrors BenchmarkDiGammaSearch with a live
// flight recorder attached, quantifying the tracing tax when enabled.
// bench_guard.sh deliberately guards only the untraced rows — this row
// exists so BENCH_core.json records the traced cost beside its baseline.
func BenchmarkDiGammaSearchTraced(b *testing.B) {
	for _, name := range []string{"ncf", "resnet18"} {
		b.Run(name, func(b *testing.B) {
			model, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewSeeded(coldProblem(b, model), core.DefaultConfig(), int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				eng.Trace = obs.NewTracer(0)
				if _, err := eng.Run(400); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSeeds is the fixed seed set the per-search count metrics average
// over (reused/op, fullevals/op, bestfit/op): iteration i searches with
// seed i mod benchSeeds + 1, the metric sums only the first pass, and a
// run too short to cover every seed (e.g. the CI -benchtime 1x smoke)
// reports no metric rather than an incomparable partial mean. A recorded
// value therefore never depends on how many iterations a run took.
const benchSeeds = 16

// benchSeed is the search seed of benchmark iteration i.
func benchSeed(i int) int64 { return int64(i%benchSeeds) + 1 }

// BenchmarkDiGammaSearchDelta isolates the dirty-layer delta evaluation
// path on the resnet18 search (bit-identical results by construction —
// TestDeltaBitIdentical): "off" scores every bred candidate from scratch,
// "on" (the engine default) clones parent analyses for clean layers,
// "on+prune" stacks the PR-3 roofline screen on top, and "on+islands=2"
// runs the delta path under the PR-4 ring. The reused/op metric counts
// the per-layer analyses per search that skipped hash, cache probe and
// cost model entirely, averaged over the benchSeeds set.
func BenchmarkDiGammaSearchDelta(b *testing.B) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"off", func(c *core.Config) { c.NoDelta = true }},
		{"on", func(c *core.Config) {}},
		{"on+prune", func(c *core.Config) { c.Prune = true }},
		{"on+islands=2", func(c *core.Config) { c.Islands = 2 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			v.mutate(&cfg)
			reused := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewSeeded(coldProblem(b, model), cfg, benchSeed(i))
				if err != nil {
					b.Fatal(err)
				}
				r, err := eng.Run(400)
				if err != nil {
					b.Fatal(err)
				}
				if i < benchSeeds {
					reused += r.LayersReused
				}
			}
			if b.N >= benchSeeds {
				b.ReportMetric(float64(reused)/benchSeeds, "reused/op")
			}
		})
	}
}

// BenchmarkDiGammaSearchPruned is BenchmarkDiGammaSearch/resnet18 with the
// roofline screen on: candidates whose provable lower bound exceeds the
// incumbent skip full analysis. The custom fullevals/op metric records how
// many design points actually paid for the cost model (the screened share
// is the search's speedup headroom; TestPruneWindowSameBest pins the
// same-final-best property), averaged over the benchSeeds set.
func BenchmarkDiGammaSearchPruned(b *testing.B) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Prune = true
	fullEvals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewSeeded(coldProblem(b, model), cfg, benchSeed(i))
		if err != nil {
			b.Fatal(err)
		}
		r, err := eng.Run(400)
		if err != nil {
			b.Fatal(err)
		}
		if i < benchSeeds {
			fullEvals += r.FullEvals
		}
	}
	if b.N >= benchSeeds {
		b.ReportMetric(float64(fullEvals)/benchSeeds, "fullevals/op")
	}
}

// BenchmarkDiGammaSearchIslands pits the island-model engine against the
// single population at equal sampling budget (4000 samples — deep enough
// for the ring's diversity to pay for its partitioned populations). Each
// sub-benchmark reports wall-clock per search plus bestfit/op: the mean
// best fitness at budget over the benchSeeds set — lower is better. The
// islands=2 rows ride the default migration period and
// must land at or below their islands=1 rows' bestfit: the equal-budget
// parity the island model is held to on resnet18 and mobilenetv2.
func BenchmarkDiGammaSearchIslands(b *testing.B) {
	const islandBudget = 4000
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		for _, islands := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/islands=%d", name, islands), func(b *testing.B) {
				model, err := workload.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.Islands = islands
				bestSum := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng, err := core.NewSeeded(coldProblem(b, model), cfg, benchSeed(i))
					if err != nil {
						b.Fatal(err)
					}
					r, err := eng.Run(islandBudget)
					if err != nil {
						b.Fatal(err)
					}
					if i < benchSeeds {
						bestSum += r.Best.Fitness
					}
				}
				if b.N >= benchSeeds {
					b.ReportMetric(bestSum/benchSeeds, "bestfit/op")
				}
			})
		}
	}
}

// BenchmarkGridSearchHW measures the HW-opt baseline's full grid sweep.
func BenchmarkGridSearchHW(b *testing.B) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := schemes.GridSearchHW(schemes.DLALike, model, arch.Edge(), coopt.Latency); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGamma measures the mapping-only GAMMA baseline.
func BenchmarkGamma(b *testing.B) {
	model, err := workload.ByName("mobilenetv2")
	if err != nil {
		b.Fatal(err)
	}
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		b.Fatal(err)
	}
	hw := schemes.FixedHW(schemes.ComputeFocused, arch.Edge())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunGamma(p, hw, 400, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the operator-ablation table (DESIGN.md's
// design-choice study) on the edge platform.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := figures.Ablation(arch.Edge(), figures.Options{
			Budget: benchBudget, Seed: int64(i + 1), Models: []string{"ncf", "resnet18"}})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := tb.Row("GeoMean"); !ok {
			b.Fatal("ablation table incomplete")
		}
	}
}

// BenchmarkBayesTune measures the Bayesian hyper-parameter tuning flow
// (paper footnote 3).
func BenchmarkBayesTune(b *testing.B) {
	model, err := workload.ByName("ncf")
	if err != nil {
		b.Fatal(err)
	}
	p, err := coopt.NewProblem(model, arch.Edge(), coopt.Latency)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Tune(p, core.TuneOptions{Trials: 6, BudgetPerTrial: 80, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiGammaSearchSharedCache measures the cross-request analysis
// tier at the library level: a repeat-heavy stream of full resnet18
// physical-tier searches (seeds rotate mod 4) over one AnalysisStore
// ("shared") versus isolated searches ("isolated"). Results are
// bit-identical by construction (TestSharedCacheBitIdentical). The row
// pins the pure cache-sharing economics: probing and populating the tier
// must never slow a search down, and on the physical tier — the most
// expensive per-layer analysis — hits buy a modest wall-clock win at the
// steady-state hit rate hitrate/op reports. The dramatic near-duplicate
// speedup lives at the serving layer, where warm start + time-to-target
// turn reuse into early stops (BenchmarkServeWarmTraffic).
func BenchmarkDiGammaSearchSharedCache(b *testing.B) {
	model, err := workload.ByName("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	for _, shared := range []bool{false, true} {
		name := "isolated"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			var store *AnalysisStore
			if shared {
				store = NewAnalysisStore()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Optimize(model, EdgePlatform(), Options{
					Budget: 400, Seed: int64(i%4 + 1), Fidelity: "physical", SharedCache: store,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if store != nil {
				b.ReportMetric(store.Stats().HitRate(), "hitrate/op")
			}
		})
	}
}
