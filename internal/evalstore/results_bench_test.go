package evalstore

import (
	"fmt"
	"io"
	"log/slog"
	"testing"
)

// benchRecord is one finished search over a 12-layer model: twelve layer
// hashes, each with a 3-level mapping block, like the records a served
// near-duplicate stream files.
func benchRecord(i int) ResultRecord {
	rec := ResultRecord{Identity: "latency|edge|analytical|co-opt", Fanouts: []int{4, 16, 1}}
	for l := 0; l < 12; l++ {
		rec.Layers = append(rec.Layers, fmt.Sprintf("%016x%016x", i, l))
		rec.Maps = append(rec.Maps, NewMappingRecord(benchMapping()))
	}
	return rec
}

// BenchmarkRecordResult times filing one finished search into a
// disk-backed store's warm-start index, which a search does before its
// job settles. The index is pre-filled with 48 records (what a
// serve-neardup run holds) or with defaultResultLimit records. Each
// iteration refiles one of them with a better fitness, so every iteration
// changes and persists the index while its size stays put.
func BenchmarkRecordResult(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, n := range []int{48, defaultResultLimit} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s, err := Open(Options{Dir: b.TempDir(), Log: quiet})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			recs := make([]ResultRecord, n)
			for i := range recs {
				recs[i] = benchRecord(i)
				recs[i].Fitness = 2e9
				s.RecordResult(recs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := recs[i%n]
				rec.Fitness = float64(1e9 - i)
				s.RecordResult(rec)
			}
			b.StopTimer()
			if st := s.Stats(); st.Results != n || st.Segments == 0 {
				b.Fatalf("index holds %d records on %d segments, want %d on disk", st.Results, st.Segments, n)
			}
		})
	}
}
