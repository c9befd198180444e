package evalstore

import (
	"encoding/json"
	"errors"
	"math"
	"sync"

	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// The result index records the best genome each completed search found,
// keyed by the per-layer context digests it searched over. A later
// search looks up the prior result whose layer set overlaps its own the
// most and seeds one island's initial population from it — the
// warm-start path. Matching is by SpecHash, so "the same layer" means
// the same dims, strides, backend, HW context and cost-model version.
//
// Determinism contract: warm start is a pure function of (request, index
// content). Records are kept and scanned in insertion order and ties
// keep the earliest record, so identical stores yield identical warm
// seeds; but because the index content itself depends on what ran
// before, warm start is opt-in and hashed into the serving dedup key —
// unlike pure cache sharing, it changes search trajectories.

// defaultResultLimit bounds the index; oldest records are evicted first.
const defaultResultLimit = 1024

// LevelRecord is one mapping level of a stored genome.
type LevelRecord struct {
	Spatial int   `json:"spatial"`
	Order   []int `json:"order"`
	Tiles   []int `json:"tiles"`
}

// MappingRecord is one layer's mapping block of a stored genome.
type MappingRecord struct {
	Levels []LevelRecord `json:"levels"`
}

// ResultRecord is one completed search in the index.
type ResultRecord struct {
	// Identity scopes matching: searches only warm-start from priors
	// with the same objective, platform, fidelity, mode and clustering
	// depth (the facade builds it; see digamma.Options).
	Identity string `json:"identity"`
	// Layers holds one Context.SpecHash per unique layer, aligned with
	// Maps.
	Layers  []string        `json:"layers"`
	Fanouts []int           `json:"fanouts"`
	Maps    []MappingRecord `json:"maps"`
	Fitness float64         `json:"fitness"`
}

// NewMappingRecord flattens one mapping block into its index form.
func NewMappingRecord(m mapping.Mapping) MappingRecord {
	rec := MappingRecord{Levels: make([]LevelRecord, len(m.Levels))}
	for i, lv := range m.Levels {
		lr := LevelRecord{
			Spatial: int(lv.Spatial),
			Order:   make([]int, workload.NumDims),
			Tiles:   make([]int, workload.NumDims),
		}
		for d := 0; d < int(workload.NumDims); d++ {
			lr.Order[d] = int(lv.Order[d])
			lr.Tiles[d] = lv.Tiles[d]
		}
		rec.Levels[i] = lr
	}
	return rec
}

// Mapping rebuilds the mapping block. Stored records come from the same
// codebase, but they are read back from JSON on disk: out-of-range values
// are clamped to valid dims so a tampered or stale record yields a merely
// arbitrary genome, never a panic. Callers repair the result against
// their own space before use.
func (mr MappingRecord) Mapping() mapping.Mapping {
	m := mapping.Mapping{Levels: make([]mapping.Level, len(mr.Levels))}
	for i, lr := range mr.Levels {
		lv := mapping.Level{Spatial: clampDim(lr.Spatial)}
		for d := 0; d < int(workload.NumDims); d++ {
			if d < len(lr.Order) {
				lv.Order[d] = clampDim(lr.Order[d])
			} else {
				lv.Order[d] = workload.Dim(d)
			}
			lv.Tiles[d] = 1
			if d < len(lr.Tiles) && lr.Tiles[d] > 0 {
				lv.Tiles[d] = lr.Tiles[d]
			}
		}
		m.Levels[i] = lv
	}
	return m
}

func clampDim(v int) workload.Dim {
	if v < 0 || v >= int(workload.NumDims) {
		return 0
	}
	return workload.Dim(v)
}

type resultIndex struct {
	mu    sync.Mutex
	recs  []ResultRecord
	limit int
}

func (ix *resultIndex) len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.recs)
}

// add appends (or refreshes) a record and reports whether the index
// changed. A record with the same identity and layer set replaces the old
// one only when it is at least as fit — the index keeps the best known
// genome per exact workload.
func (ix *resultIndex) add(rec ResultRecord) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i := range ix.recs {
		old := &ix.recs[i]
		if old.Identity == rec.Identity && sameLayers(old.Layers, rec.Layers) {
			if rec.Fitness > old.Fitness {
				return false
			}
			*old = rec
			return true
		}
	}
	ix.recs = append(ix.recs, rec)
	if ix.limit > 0 && len(ix.recs) > ix.limit {
		ix.recs = append(ix.recs[:0], ix.recs[len(ix.recs)-ix.limit:]...)
	}
	return true
}

func sameLayers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nearest returns the record sharing the most layer hashes with the
// query (set overlap; each stored layer matches at most once), requiring
// at least one match. Scanned in insertion order; ties keep the earliest.
func (ix *resultIndex) nearest(identity string, layers []string) (ResultRecord, int, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bestIdx, bestOverlap := -1, 0
	for i := range ix.recs {
		rec := &ix.recs[i]
		if rec.Identity != identity {
			continue
		}
		overlap := overlapCount(layers, rec.Layers)
		if overlap > bestOverlap {
			bestIdx, bestOverlap = i, overlap
		}
	}
	if bestIdx < 0 {
		return ResultRecord{}, 0, false
	}
	// Deep-ish copy so callers can adapt the genome freely.
	out := ix.recs[bestIdx]
	out.Layers = append([]string(nil), out.Layers...)
	out.Fanouts = append([]int(nil), out.Fanouts...)
	out.Maps = append([]MappingRecord(nil), out.Maps...)
	return out, bestOverlap, true
}

func overlapCount(query, stored []string) int {
	used := make([]bool, len(stored))
	n := 0
	for _, q := range query {
		for j, s := range stored {
			if !used[j] && s == q {
				used[j] = true
				n++
				break
			}
		}
	}
	return n
}

// valid reports whether rec is fileable: one mapping block per layer and
// a finite fitness (the replacement rule compares fitnesses, and JSON has
// no form for NaN or ±Inf).
func (rec *ResultRecord) valid() bool {
	return len(rec.Layers) > 0 && len(rec.Maps) == len(rec.Layers) &&
		!math.IsNaN(rec.Fitness) && !math.IsInf(rec.Fitness, 0)
}

// decodeRecord parses an 'R' segment record; a record RecordResult would
// have refused is an error.
func decodeRecord(b []byte) (ResultRecord, error) {
	var rec ResultRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return ResultRecord{}, err
	}
	if !rec.valid() {
		return ResultRecord{}, errors.New("evalstore: malformed result record")
	}
	return rec, nil
}

// RecordResult files a completed search into the warm-start index. When
// the index changed and the store is disk-backed, the record is appended
// to the active segment and flushed to the OS (not fsynced: like the
// entries, it survives a process kill but not a power loss). diskMu is
// held from the index update through the append, so concurrent records
// reach the segment in the order they changed the index and replay
// rebuilds the same index.
func (s *Store) RecordResult(rec ResultRecord) {
	if !rec.valid() {
		return
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if !s.results.add(rec) || s.disk == nil {
		return
	}
	if err := s.disk.appendRecord(rec); err != nil {
		s.detachDisk(err)
	}
}

// Nearest looks up the prior result with the highest per-layer overlap
// for a new search (see resultIndex.nearest).
func (s *Store) Nearest(identity string, layers []string) (ResultRecord, int, bool) {
	return s.results.nearest(identity, layers)
}
