// Engine checkpoints: a search interrupted at any generation boundary can
// resume bit-identically to an uninterrupted run. The repo's core
// invariant makes this cheap and exact — results are a pure function of
// (Seed, Islands, MigrateEvery, Profiles) — so a checkpoint only needs to
// capture the part of that function's state that is expensive to rebuild:
// each island's population (genomes + fitness), its RNG stream *position*
// (not the generator internals: the stream is replayed from the seed),
// the prune/scout incumbents, and the run's sample accounting.
//
// The snapshot point is the generation boundary — populations evaluated
// and installed, no RNG drawn for the next generation — which is exactly
// where RunContext checks its context, so a cancelled (drained) run's
// final checkpoint and a periodic checkpoint are indistinguishable.
//
// The population travels as the AppendStates bytes (states.go) — the one
// byte form of an individual that migrants and final bests use too —
// inside the checkpoint's JSON envelope.
//
// Resume re-evaluates the stored genomes instead of serializing analyses:
// evaluation is pure, so the fitness comes back bit-identical (verified —
// a mismatch means the checkpoint belongs to a different problem or code
// version and the resume is refused), pruned individuals are rebuilt from
// their stored bound via coopt.PrunedInto, and the RNG streams are
// fast-forwarded from the master seed by their recorded draw counts.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"digamma/internal/obs"
)

// CheckpointVersion is the format version stamped into every checkpoint;
// decoding refuses other versions rather than guessing. Version 3 drops
// each island's prune-stall counter, which version 2 carried; version 1
// stored each island's population as JSON, not AppendStates bytes.
const CheckpointVersion = 3

// replaySource wraps the engine's deterministic rand source and counts
// state advances. Both Int63 and Uint64 step the underlying generator
// exactly once, so "n calls happened" fully determines the stream
// position: a fresh source for the same seed fast-forwarded by n draws is
// bit-identical to the live one. rand.New over the wrapper forwards every
// draw 1:1, so the wrapped stream is rand.NewSource(seed)'s own.
type replaySource struct {
	src rand.Source64
	n   uint64
}

func newReplaySource(seed int64) *replaySource {
	return &replaySource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *replaySource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *replaySource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *replaySource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// fastForward replays draws until the stream position reaches n.
func (s *replaySource) fastForward(n uint64) {
	for s.n < n {
		s.Uint64()
	}
}

// Checkpoint is one generation-boundary snapshot of a running search:
// versioned, self-describing (ConfigSum fingerprints the problem and every
// fitness-relevant knob) and JSON-serializable. Resuming from it yields a
// Result whose best genome, fitness, History and sample accounting are
// bit-identical to the uninterrupted run's; only the pool-reuse and
// layer-reuse telemetry may differ (identity-based block sharing across
// individuals is not reconstructed).
type Checkpoint struct {
	Version   int    `json:"version"`
	ConfigSum string `json:"config_sum"` // problem + config fingerprint
	Seed      int64  `json:"seed"`
	Budget    int    `json:"budget"`

	Generations int       `json:"generations"`
	Samples     int       `json:"samples"`
	FullEvals   int       `json:"full_evals"`
	PrunedEvals int       `json:"pruned_evals"`
	ScoutEvals  int       `json:"scout_evals"`
	History     []float64 `json:"history"`

	Islands []IslandState `json:"islands"`
}

// IslandState snapshots one island at the generation boundary.
type IslandState struct {
	// Draws is the island's RNG stream position: the number of state
	// advances since the stream's seed (drawn from the master stream at
	// build time, re-derived identically on resume).
	Draws uint64 `json:"rng_draws"`

	Best    float64 `json:"best"` // prune incumbent
	Samples int     `json:"samples"`

	DeltaEvals   int    `json:"delta_evals"`
	LayersReused int    `json:"layers_reused"`
	PoolGets     uint64 `json:"pool_gets"`
	PoolReuses   uint64 `json:"pool_reuses"`

	// Pop is the population in install order (the order begin's
	// sort sees, so tie-breaking behaves identically after resume), as
	// AppendStates bytes.
	Pop []byte `json:"pop"`
}

// Marshal serializes the checkpoint as JSON.
func (ck *Checkpoint) Marshal() ([]byte, error) {
	return json.Marshal(ck)
}

// UnmarshalCheckpoint decodes a checkpoint and validates its version.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// configSum fingerprints everything a checkpoint's validity depends on:
// the fitness-relevant engine knobs and the problem identity (layers,
// platform budget, objective, backend, fixed HW). Workers is excluded —
// results never depend on it — so a resume may legally change it.
func (e *Engine) configSum() string {
	h := sha256.New()
	c := e.Config
	fmt.Fprintf(h, "cfg|%d|%g|%g|%g|%g|%g|%g|%g|%d|%g|%g|%g\n",
		c.PopSize, c.EliteFrac, c.CrossRate, c.ReorderRate, c.MutMapRate,
		c.MutHWRate, c.GrowRate, c.AgeRate, c.MaxLevels, c.DivisorBias,
		c.GreedyCross, c.SeedFrac)
	fmt.Fprintf(h, "prune|%t|delta|%t|fixed|%t|target|%g\n",
		c.Prune, c.NoDelta, c.FixedHW, c.Target)
	fmt.Fprintf(h, "islands|%d|%d|%d", c.Islands, c.MigrateEvery, len(c.Profiles))
	for _, name := range c.Profiles {
		fmt.Fprintf(h, "|%s", name)
	}
	fmt.Fprintln(h)
	p := e.Problem
	fmt.Fprintf(h, "prob|%s|%s|%g|%d|%d\n",
		p.Objective, p.Backend().Name(), p.Platform.AreaBudgetMM2, p.Space.Levels, p.Space.MaxFanout)
	if p.FixedHW != nil {
		fmt.Fprintf(h, "hw|%v\n", p.FixedHW.Fanouts)
	}
	for _, l := range p.Space.Layers {
		sy, sx := l.Strides()
		fmt.Fprintf(h, "%s|%d,%d,%d,%d,%d,%d|%d,%d|%d\n",
			l.Type, l.K, l.C, l.Y, l.X, l.R, l.S, sy, sx, l.Multiplicity())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// snapshot captures the run at the current generation boundary; sum is
// the run's configSum.
func (e *Engine) snapshot(sum string, res *Result, budget int, islands []*island) *Checkpoint {
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		ConfigSum:   sum,
		Seed:        e.seed,
		Budget:      budget,
		Generations: res.Generations,
		Samples:     res.Samples,
		FullEvals:   res.FullEvals,
		PrunedEvals: res.PrunedEvals,
		ScoutEvals:  res.ScoutEvals,
		History:     append([]float64(nil), res.History...),
		Islands:     make([]IslandState, len(islands)),
	}
	for i, is := range islands {
		ck.Islands[i] = is.snapshotState()
	}
	return ck
}

// snapshotState captures one island at the generation boundary — the
// per-island slice of Engine.snapshot.
func (is *island) snapshotState() IslandState {
	gets, reuses := is.pool.Stats()
	return IslandState{
		Draws:        is.src.n,
		Best:         is.best,
		Samples:      is.samples,
		DeltaEvals:   is.deltaEvals,
		LayersReused: is.layersReused,
		PoolGets:     gets + is.poolGetBias,
		PoolReuses:   reuses + is.poolReuseBias,
		Pop:          appendIndividuals(nil, is.cur),
	}
}

// maxDrawsPerSample is the documented ceiling on an island's RNG draws per
// sample it has spent, per (layer, hierarchy level) block of the genomes
// it breeds, plus one block of slack per sample. Every draw site is
// bounded per block: a random genome or a re-tiling mutation draws at most
// a few values per dimension of each level, crossover two or three per
// layer, and the HW and structural operators a handful per child. The zoo
// averages 4–14 draws per sample and layer at the default depth, far
// below it. restoreState refuses a checkpointed stream position beyond
// the ceiling instead of fast-forwarding toward it: a corrupt count could
// otherwise spin for hours.
const maxDrawsPerSample = 64

// restoreState rebuilds one island from a boundary snapshot: shape and
// counters validated against the island, RNG stream fast-forwarded to its
// recorded position, population re-evaluated into the pool (pure
// evaluation ⇒ identical fitness, verified), counters and pool biases
// restored — the per-island slice of Engine.restore. A malformed snapshot
// is an error, never a panic.
func (is *island) restoreState(st *IslandState) error {
	pop, err := DecodeStates(st.Pop)
	if err != nil {
		return fmt.Errorf("core: checkpoint island %d population: %w", is.id, err)
	}
	if len(pop) < is.elites || len(pop) > is.pop {
		return fmt.Errorf("core: checkpoint island %d holds %d individuals, outside [%d,%d]", is.id, len(pop), is.elites, is.pop)
	}
	if st.Samples < len(pop) || st.Samples > is.budget {
		return fmt.Errorf("core: checkpoint island %d spent %d samples, outside [%d,%d]", is.id, st.Samples, len(pop), is.budget)
	}
	levels := max(is.cfg.MaxLevels, is.prob.Space.Levels)
	for _, ind := range pop {
		levels = max(levels, len(ind.Fanouts))
	}
	blocks := uint64(len(is.prob.Space.Layers)*levels + 1)
	if ceiling := uint64(st.Samples+1) * blocks * maxDrawsPerSample; st.Draws > ceiling {
		return fmt.Errorf("core: checkpoint island %d RNG position %d exceeds the ceiling %d for %d samples", is.id, st.Draws, ceiling, st.Samples)
	}
	is.cur = is.cur[:0]
	for pi := range pop {
		ind, err := is.rebuild(&pop[pi])
		if err != nil {
			return fmt.Errorf("core: checkpoint island %d individual %d: %w", is.id, pi, err)
		}
		is.cur = append(is.cur, ind)
	}
	// The island-seed draws were already replayed identically by
	// buildIslands; what remains is the island's own stream position.
	is.src.fastForward(st.Draws)
	is.best = st.Best
	is.samples = st.Samples
	is.deltaEvals = st.DeltaEvals
	is.layersReused = st.LayersReused
	// The rebuilt pool's counters restart from this population's Gets;
	// the bias re-bases them onto the original run's totals so chained
	// resumes keep reporting cumulative telemetry.
	gets, reuses := is.pool.Stats()
	if st.PoolGets > gets {
		is.poolGetBias = st.PoolGets - gets
	}
	if st.PoolReuses > reuses {
		is.poolReuseBias = st.PoolReuses - reuses
	}
	return nil
}

// emitCheckpoint snapshots the run and hands it to OnCheckpoint. All
// gating lives here so call sites stay branch-cheap: nothing happens (and
// nothing allocates) unless checkpointing was requested, and the very
// first boundary (generation 0: just the initial batch, no cheaper than a
// fresh start) is skipped. sum is the run's configSum.
func (e *Engine) emitCheckpoint(sum string, res *Result, budget int, islands []*island) {
	if e.OnCheckpoint == nil || e.Config.CheckpointEvery <= 0 || res.Generations == 0 {
		return
	}
	t0 := e.Trace.Now()
	e.OnCheckpoint(e.snapshot(sum, res, budget, islands))
	e.traceSpan(obs.PhaseCkpt, -1, res.Generations, t0)
}

// restore rebuilds the run's state from a checkpoint: validates it
// against this engine's problem + config fingerprint (sum, the run's
// configSum), fast-forwards every
// RNG stream to its recorded position, re-evaluates the stored genomes
// into the islands' pools (pure evaluation ⇒ identical fitness, which is
// verified), and restores the sample accounting. After restore the
// generation loop continues exactly as the uninterrupted run would have.
func (e *Engine) restore(ck *Checkpoint, sum string, islands []*island, res *Result, budget int) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	if ck.Seed != e.seed {
		return fmt.Errorf("core: checkpoint seed %d, engine seeded with %d", ck.Seed, e.seed)
	}
	if ck.Budget != budget {
		return fmt.Errorf("core: checkpoint budget %d, run budget %d", ck.Budget, budget)
	}
	if ck.ConfigSum != sum {
		return fmt.Errorf("core: checkpoint config %s does not match engine config %s (different problem or knobs)", ck.ConfigSum, sum)
	}
	if len(ck.Islands) != len(islands) {
		return fmt.Errorf("core: checkpoint has %d islands, run builds %d", len(ck.Islands), len(islands))
	}
	if ck.Generations < 1 {
		return errors.New("core: checkpoint precedes the first generation")
	}
	// The run's counters are sums the engine maintains exactly; a
	// checkpoint whose books do not balance is corrupt (and a sample count
	// below the islands' spend would keep the loop running on idle islands).
	if len(ck.History) != ck.Generations {
		return fmt.Errorf("core: checkpoint has %d history entries for %d generations", len(ck.History), ck.Generations)
	}
	if ck.FullEvals+ck.PrunedEvals+ck.ScoutEvals != ck.Samples {
		return fmt.Errorf("core: checkpoint evaluation split %d+%d+%d does not sum to %d samples",
			ck.FullEvals, ck.PrunedEvals, ck.ScoutEvals, ck.Samples)
	}
	spent := 0
	for i := range ck.Islands {
		spent += ck.Islands[i].Samples
	}
	if spent != ck.Samples {
		return fmt.Errorf("core: checkpoint islands spent %d samples, the run %d", spent, ck.Samples)
	}
	for i, is := range islands {
		if err := is.restoreState(&ck.Islands[i]); err != nil {
			return err
		}
	}
	res.Generations = ck.Generations
	res.Samples = ck.Samples
	res.FullEvals = ck.FullEvals
	res.PrunedEvals = ck.PrunedEvals
	res.ScoutEvals = ck.ScoutEvals
	res.History = append(res.History[:0], ck.History...)
	return nil
}
