// Probe-path microbenchmarks. The shared tier only pays off if probing it
// (ProbeKey + Get + Clone-promote) costs well under one cost-model
// analysis — the work a hit avoids. These rows pin each leg of that
// inequality: key derivation must stay allocation-free and a fraction of
// AnalyzeGEMMSmall / AnalyzePhysical, or every L2 miss turns into pure
// overhead on the search's hot loop.
package evalstore

import (
	"testing"

	"digamma/internal/arch"
	"digamma/internal/cost"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

func benchMapping() mapping.Mapping {
	return mapping.Mapping{Levels: []mapping.Level{
		{Spatial: workload.K, Order: [workload.NumDims]workload.Dim{workload.K, workload.C, workload.Y, workload.X, workload.R, workload.S}, Tiles: workload.Vector{4, 8, 1, 1, 1, 1}},
		{Spatial: workload.C, Order: [workload.NumDims]workload.Dim{workload.C, workload.K, workload.Y, workload.X, workload.R, workload.S}, Tiles: workload.Vector{16, 16, 1, 1, 1, 1}},
		{Spatial: workload.K, Order: [workload.NumDims]workload.Dim{workload.K, workload.C, workload.Y, workload.X, workload.R, workload.S}, Tiles: workload.Vector{256, 512, 1, 1, 1, 1}},
	}}
}

func BenchmarkProbeKeyOnly(b *testing.B) {
	layer := workload.Layer{Name: "fc", Type: workload.GEMM, K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1}
	ctxs := NewContexts("fp", "analytic", []workload.Layer{layer}, nil)
	m := benchMapping()
	fanouts := []int{4, 16, 1}
	b.ReportAllocs()
	var sink Key
	for i := 0; i < b.N; i++ {
		sink = ProbeKey(&ctxs[0], fanouts, m)
	}
	_ = sink
}

func BenchmarkAnalyzeGEMMSmall(b *testing.B) {
	layer := workload.Layer{Name: "fc", Type: workload.GEMM, K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1}
	hw := arch.HW{Fanouts: []int{4, 16, 1}}.Defaults()
	m := benchMapping()
	a := cost.NewAnalyzer(layer)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeTrusted(hw, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultClone(b *testing.B) {
	layer := workload.Layer{Name: "fc", Type: workload.GEMM, K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1}
	hw := arch.HW{Fanouts: []int{4, 16, 1}}.Defaults()
	a := cost.NewAnalyzer(layer)
	r, err := a.AnalyzeTrusted(hw, benchMapping())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Clone()
	}
}

func BenchmarkStoreGetHit(b *testing.B) {
	layer := workload.Layer{Name: "fc", Type: workload.GEMM, K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1}
	ctxs := NewContexts("fp", "analytic", []workload.Layer{layer}, nil)
	m := benchMapping()
	fanouts := []int{4, 16, 1}
	hw := arch.HW{Fanouts: fanouts}.Defaults()
	a := cost.NewAnalyzer(layer)
	r, err := a.AnalyzeTrusted(hw, m)
	if err != nil {
		b.Fatal(err)
	}
	s := NewMemory()
	k := ProbeKey(&ctxs[0], fanouts, m)
	s.Put(k, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkAnalyzePhysical(b *testing.B) {
	layer := workload.Layer{Name: "fc", Type: workload.GEMM, K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1}
	hw := arch.HW{Fanouts: []int{4, 16, 1}}.Defaults()
	m := benchMapping()
	be, err := cost.BackendByName("physical")
	if err != nil {
		b.Fatal(err)
	}
	hw = be.PrepareHW(hw)
	a := cost.NewAnalyzer(layer)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := be.Analyze(&a, hw, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutDisk publishes fresh analyses into a disk-backed
// store: the clone, the shard insert and the framed append to the active
// segment that every shared-tier miss pays.
func BenchmarkStorePutDisk(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	results := make([]*cost.Result, 16)
	for i := range results {
		results[i] = testResult(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(testKey(i), results[i%len(results)])
	}
}

// BenchmarkStorePutEvicting publishes fresh analyses into a memory-only
// store already at its budget, so every MaxSegmentBytes of inserts drops
// the oldest generation whole: the steady state of a long-running daemon.
func BenchmarkStorePutEvicting(b *testing.B) {
	s, err := Open(Options{MaxBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	results := make([]*cost.Result, 16)
	for i := range results {
		results[i] = testResult(i)
	}
	for i := 0; s.Stats().Evicted == 0; i++ {
		s.Put(testKey(-1-i), results[i%len(results)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(testKey(i), results[i%len(results)])
	}
}
