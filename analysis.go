package digamma

import (
	"fmt"

	"digamma/internal/core"
	"digamma/internal/evalstore"
	"digamma/internal/mapping"
	"digamma/internal/space"
	"digamma/internal/workload"
)

// AnalysisStore is the process-wide shared analysis tier: a second-level
// cache of per-layer cost-model analyses that outlives any one search.
// Per-layer analyses are pure functions of (layer shape, hardware
// context, mapping block, cost-model version), so sharing them across
// searches — even across restarts, with a disk-backed store — never
// changes a result, only how fast it is reached: a search with
// Options.SharedCache set returns bit-identical results to one without.
//
// A store is safe for concurrent use by any number of searches. Attach
// one store per process (or per serving daemon) and reuse it.
type AnalysisStore = evalstore.Store

// AnalysisStats is an AnalysisStore's counter snapshot.
type AnalysisStats = evalstore.Stats

// NewAnalysisStore returns a memory-only shared analysis tier, bounded
// by the store's default byte budget (oldest generations are dropped
// whole once it is exceeded; see docs/evalstore-format.md).
func NewAnalysisStore() *AnalysisStore { return evalstore.NewMemory() }

// OpenAnalysisStore opens (creating if needed) a disk-backed shared
// analysis tier rooted at dir. Entries persist across restarts in
// CRC-framed append-only segments versioned by the cost-model
// fingerprint; segments written by a different model version are
// discarded at open, and segments past the default byte budget are
// dropped, oldest first. Disk failures demote the store to memory-only
// operation — they never fail a search.
func OpenAnalysisStore(dir string) (*AnalysisStore, error) {
	return evalstore.Open(evalstore.Options{Dir: dir})
}

// attachShared wires the options' shared tier into an assembled problem.
func (o Options) attachShared(p *Problem) *Problem {
	if o.SharedCache == nil {
		return p
	}
	return p.WithShared(o.SharedCache)
}

// warmIdentity scopes warm-start matching: a search only seeds from
// priors with the same objective, platform, fidelity tier and search
// mode. (Layer shapes, the HW context and the cost-model version are
// already folded into the per-layer hashes the index matches on.)
func (o Options) warmIdentity(p *Problem) string {
	mode := "co-opt"
	if p.FixedHW != nil {
		mode = "fixed-hw"
	}
	return fmt.Sprintf("%s|%s|%s|%s", o.Objective, p.Platform.Name, o.Fidelity, mode)
}

// warmConfig resolves the warm-start seed for a run: the stored result
// whose per-layer hash set overlaps this problem's the most, adapted
// into one genome that seeds the first full-fidelity island. No-op
// without WarmStart + SharedCache, and on resumed runs (the checkpointed
// populations already embody any seeding).
func (o Options) warmConfig(p *Problem, base core.Config) core.Config {
	if !o.WarmStart || o.SharedCache == nil || o.Resume != nil {
		return base
	}
	layers := specHashes(p)
	if len(layers) == 0 {
		return base
	}
	rec, _, ok := o.SharedCache.Nearest(o.warmIdentity(p), layers)
	if !ok {
		return base
	}
	base.Warm = []space.Genome{warmGenome(rec, layers, p.Space.Layers)}
	return base
}

// specHashes returns the problem's per-layer context digests, aligned
// with its unique layers. Callers attach the shared tier first, so the
// digests carry its fingerprint.
func specHashes(p *Problem) []string {
	ctxs := p.Contexts()
	out := make([]string, len(ctxs))
	for i := range ctxs {
		out[i] = ctxs[i].SpecHash()
	}
	return out
}

// warmGenome adapts a stored prior into a seed genome for this problem:
// layers present in the prior (by content hash, each stored layer used
// at most once) take its mapping block; unmatched layers fall back to
// the positionally corresponding block, with every tile snapped to the
// nearest divisor of the target layer's bounds — a tiling tuned for a
// near-duplicate shape typically lands one ragged edge away from clean
// on the new dims, and that padding penalty would otherwise cost the
// seeded search a polish generation before it looks as good as the
// prior it came from. The genome is only plausible here — the engine
// repairs it against the target space before use.
func warmGenome(rec evalstore.ResultRecord, layers []string, target []workload.Layer) space.Genome {
	g := space.Genome{
		Fanouts: append([]int(nil), rec.Fanouts...),
		Maps:    make([]mapping.Mapping, len(layers)),
	}
	used := make([]bool, len(rec.Layers))
	for i, h := range layers {
		src := i % len(rec.Maps)
		for j, s := range rec.Layers {
			if !used[j] && s == h {
				used[j] = true
				src = j
				break
			}
		}
		g.Maps[i] = snapTiles(rec.Maps[src].Mapping(), target[i])
	}
	return g
}

// snapTiles walks one mapping block outermost-in, snapping each tile to
// the nearest divisor of its enclosing extent (the layer bound at the
// outermost level, the enclosing level's snapped tile below — the same
// nesting discipline the divisor-biased tile mutation samples under).
// The mapping is owned by the caller; snapping mutates it in place.
func snapTiles(m mapping.Mapping, l workload.Layer) mapping.Mapping {
	for d := workload.Dim(0); d < workload.NumDims; d++ {
		bound := l.Dim(d)
		for li := len(m.Levels) - 1; li >= 0; li-- {
			t := mapping.NearestDivisor(bound, m.Levels[li].Tiles[d])
			m.Levels[li].Tiles[d] = t
			bound = t
		}
	}
	return m
}

// recordResult files a completed search's best design into the shared
// store's warm-start index, so later near-duplicate searches can seed
// from it. Pruned or genome-less evaluations (manual baselines) are
// skipped.
func (o Options) recordResult(p *Problem, ev *Evaluation) {
	if o.SharedCache == nil || ev == nil || ev.Pruned || len(ev.Genome.Maps) == 0 {
		return
	}
	layers := specHashes(p)
	if len(layers) != len(ev.Genome.Maps) {
		return
	}
	maps := make([]evalstore.MappingRecord, len(ev.Genome.Maps))
	for i, m := range ev.Genome.Maps {
		maps[i] = evalstore.NewMappingRecord(m)
	}
	o.SharedCache.RecordResult(evalstore.ResultRecord{
		Identity: o.warmIdentity(p),
		Layers:   layers,
		Fanouts:  append([]int(nil), ev.Genome.Fanouts...),
		Maps:     maps,
		Fitness:  ev.Fitness,
	})
}
