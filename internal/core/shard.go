// The transport seam for distributed island search (internal/dist): the
// Placement interface lets a multi-process backend take over a run before
// the in-process loop draws any RNG, and the ShardRunner steps a subset
// of a run's islands on a worker process in exact lockstep with the
// engine's own generation loop.
//
// The determinism contract survives placement because every piece here is
// a replica of an engine code path, not a reimplementation: a worker
// builds the SAME islands via buildIslands (same seeds, same profiles,
// same budget shares), executes the SAME per-body operation sequence
// (beginGeneration sort → breed → evaluate → account → install, with the
// boundary body split into an export phase and an apply phase around the
// elite exchange), and sorts the SAME number of times on the same data —
// sort.Slice is not stable, so replicating the exact sort sequence, not
// just the final comparisons, is what keeps populations bit-identical.
// Migrants travel in the binary state encoding (AppendStates) and are
// re-materialized by re-evaluation, which is pure, so the receiving
// population is bit-identical to the in-process ring's.
package core

import (
	"context"
	"errors"
	"fmt"

	"digamma/internal/coopt"
	"digamma/internal/space"
)

// Placement is the transport seam: an Engine with a non-nil Placement
// offers it the whole run before the in-process island loop starts.
//
// Run returns handled == false to decline — no workers reachable, run
// shape not eligible — in which case it MUST NOT have consumed any engine
// state (in particular no RNG draws): the engine then falls through to
// the in-process path bit-identically to a run that never had a
// placement. Once a placement commits (handled == true), its result must
// be a pure function of (Seed, Islands, MigrateEvery, Profiles) — never
// of worker count, process count, or message arrival order — exactly the
// in-process contract.
type Placement interface {
	Run(ctx context.Context, e *Engine, budget int) (res *Result, handled bool, err error)
}

// Seed returns the engine's master seed and whether the engine was built
// with NewSeeded (placements require it: island streams must be
// re-derivable on a worker from the seed alone).
func (e *Engine) Seed() (int64, bool) { return e.seed, e.master != nil }

// ConfigSum exposes the problem + config fingerprint used by checkpoints;
// the distributed handshake cross-checks it so a coordinator and a worker
// that would compute different results refuse to pair up.
func (e *Engine) ConfigSum() string { return e.configSum() }

// PlannedIslands reports how many islands a run with this budget would
// build, without drawing any RNG — the placement eligibility check
// (distribution needs ≥ 2).
func (e *Engine) PlannedIslands(budget int) int {
	k := max(e.Config.Islands, 1)
	if k > budget {
		k = budget
	}
	return k
}

// IslandPlan describes one island's fixed parameters: everything the
// coordinator's sample-spend simulation (Schedule) and the worker seed
// cross-check need.
type IslandPlan struct {
	ID     int   `json:"id"`
	Seed   int64 `json:"seed"` // stream seed drawn from the master stream
	Pop    int   `json:"pop"`
	Elites int   `json:"elites"`
	Budget int   `json:"budget"` // this island's share of the run budget
	Scout  bool  `json:"scout,omitempty"`
}

// RunPlan is the coordinator's view of a run: per-island parameters plus
// the resolved migration knobs.
type RunPlan struct {
	Budget       int          `json:"budget"`
	MigrateEvery int          `json:"migrate_every"` // resolved (never 0)
	MigrateCount int          `json:"migrate_count"`
	Islands      []IslandPlan `json:"islands"`
}

// PlanRun builds the run's islands and extracts their plan. It draws the
// per-island seeds from the engine's master stream — exactly the draws
// the in-process path would make — so a placement must only call it after
// committing to handle the run; calling it and then declining would
// desynchronize the local fallback.
func (e *Engine) PlanRun(budget int) (*RunPlan, error) {
	if budget < 1 {
		return nil, errors.New("core: non-positive budget")
	}
	islands, err := e.buildIslands(budget)
	if err != nil {
		return nil, err
	}
	me := e.Config.MigrateEvery
	if me == 0 {
		me = DefaultMigrateEvery
	}
	plan := &RunPlan{
		Budget:       budget,
		MigrateEvery: me,
		MigrateCount: e.Config.MigrateCount,
		Islands:      make([]IslandPlan, len(islands)),
	}
	for i, is := range islands {
		plan.Islands[i] = IslandPlan{ID: i, Seed: is.seed, Pop: is.pop, Elites: is.elites, Budget: is.budget, Scout: is.scout}
	}
	return plan, nil
}

// MigrationRoute computes the deterministic ring: source island i sends
// its elites to the next non-scout island clockwise, or nowhere (-1) when
// that walk comes back to i. With every island a scout (which buildIslands
// never produces) all routes are -1.
func MigrationRoute(scouts []bool) []int {
	k := len(scouts)
	route := make([]int, k)
	anyFull := false
	for _, s := range scouts {
		if !s {
			anyFull = true
		}
	}
	for i := range route {
		if !anyFull {
			route[i] = -1
			continue
		}
		j := (i + 1) % k
		for scouts[j] {
			j = (j + 1) % k
		}
		if j == i {
			j = -1
		}
		route[i] = j
	}
	return route
}

// migrantCount resolves how many elites this island exports per
// migration: Config.MigrateCount, defaulting to the island's own elite
// count, clamped to the population.
func (is *island) migrantCount(migrateCount int) int {
	m := migrateCount
	if m <= 0 {
		m = is.elites
	}
	return min(m, len(is.cur))
}

// encodeIndividuals serializes a selection in order, deep-copying each
// genome through Clone so the encoded state never aliases arena-backed
// blocks a later generation mutates. Shared by checkpoints and the
// migration observation hook; the wire protocol encodes straight from the
// selection instead (appendIndividuals).
func encodeIndividuals(sel []individual) []IndividualState {
	out := make([]IndividualState, len(sel))
	for i, ind := range sel {
		g := ind.genome.Clone()
		out[i] = IndividualState{
			Fanouts: g.Fanouts,
			Maps:    g.Maps,
			Fitness: ind.eval.Fitness,
			Pruned:  ind.eval.Pruned,
		}
	}
	return out
}

// rescoreElites scores a scout island's outgoing elites with the run's
// full-fidelity model, spending the island's remaining budget share
// (elites the share cannot afford are dropped — deterministic, since the
// cut depends only on the sample counters). onEval is invoked once per
// re-score for run-level accounting. Returns the re-scored selection and
// how many per-layer analyses the cache tiers recovered.
func (is *island) rescoreElites(sel []individual, onEval func(*coopt.Evaluation)) ([]individual, int, error) {
	h0 := is.full.SharedHits()
	var l0 uint64
	if is.full.Cache != nil {
		l0, _ = is.full.Cache.Lookups()
	}
	out := make([]individual, 0, len(sel))
	for _, ind := range sel {
		if is.samples >= is.budget {
			break
		}
		ev, err := is.full.EvaluateCanonical(ind.genome)
		if err != nil {
			return nil, 0, err
		}
		is.samples++
		if onEval != nil {
			onEval(ev)
		}
		out = append(out, individual{ind.genome, ev})
	}
	recovered := int(is.full.SharedHits() - h0)
	if is.full.Cache != nil {
		l1, _ := is.full.Cache.Lookups()
		recovered += int(l1 - l0)
	}
	return out, recovered, nil
}

// materializeMigrant rebuilds one incoming migrant into this island's
// pool (see rebuild).
func (is *island) materializeMigrant(st *IndividualState) (individual, error) {
	ind, err := is.rebuild(st)
	if err != nil {
		return individual{}, fmt.Errorf("core: migrant for island %d: %w", is.id, err)
	}
	return ind, nil
}

// rebuild turns one decoded individual — a checkpointed population member
// or a migrant off the wire — back into a live one in this island's pool.
// The genome must be canonical for the island's problem (a malformed one
// is refused before anything indexes into it); pruned states carry their
// bound, everything else is re-evaluated (pure, so the fitness must come
// back identical — checked, catching a different or divergent cost model).
func (is *island) rebuild(st *IndividualState) (individual, error) {
	g := space.Genome{Fanouts: st.Fanouts, Maps: st.Maps}
	if err := is.prob.Space.CheckCanonical(g); err != nil {
		return individual{}, err
	}
	ev := is.pool.Get()
	if st.Pruned {
		coopt.PrunedInto(ev, g, st.Fitness)
		return individual{g, ev}, nil
	}
	if err := is.prob.EvaluateCanonicalInto(ev, g); err != nil {
		return individual{}, err
	}
	if ev.Fitness != st.Fitness {
		return individual{}, fmt.Errorf("re-evaluates to %g, recorded %g (different cost model?)", ev.Fitness, st.Fitness)
	}
	return individual{g, ev}, nil
}
