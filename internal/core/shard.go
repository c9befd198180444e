// The transport seam for distributed island search (internal/dist): the
// Placement interface lets a multi-process backend take over a run before
// the in-process loop draws any RNG, and the ShardRunner steps a subset
// of a run's islands on a worker process in exact lockstep with the
// engine's own generation loop.
//
// The determinism contract survives placement because a worker runs the
// same code, not a replica of it: it builds the SAME islands via
// buildIslands (same seeds, same profiles, same budget shares) and steps
// them through the SAME island methods Engine.RunContext calls — begin,
// exportElites, receiveMigrants, breedEvaluate, install — in the same
// order, so every sort (sort.Slice is not stable) sees the same data.
// Migrants travel as the same AppendStates bytes under both drivers, and
// receiveMigrants rebuilds them by re-evaluation, which is pure, so the
// only difference between the drivers is how the bytes are delivered:
// in memory, or over TCP by the coordinator.
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

// Seed returns the engine's master seed, from which a worker re-derives
// every island stream.
func (e *Engine) Seed() int64 { return e.seed }

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
// the resolved migration period.
type RunPlan struct {
	Budget       int          `json:"budget"`
	MigrateEvery int          `json:"migrate_every"` // resolved (never 0)
	Islands      []IslandPlan `json:"islands"`
}

// ObserveMigration hands one boundary's exports — each island's
// exportElites bytes, as both drivers deliver them — to OnMigration,
// decoded. Without an observer nothing is decoded.
func (e *Engine) ObserveMigration(gen int, exports [][]byte) error {
	if e.OnMigration == nil {
		return nil
	}
	states := make([][]IndividualState, len(exports))
	for i, b := range exports {
		var err error
		if states[i], err = DecodeStates(b); err != nil {
			return fmt.Errorf("core: island %d exports: %w", i, err)
		}
	}
	e.OnMigration(gen, states)
	return nil
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
		Islands:      make([]IslandPlan, len(islands)),
	}
	for i, is := range islands {
		plan.Islands[i] = IslandPlan{ID: i, Seed: is.seed, Pop: is.pop, Elites: is.elites, Budget: is.budget, Scout: is.scout}
	}
	return plan, nil
}

// MigrationRoute computes the deterministic ring: source island i sends
// its elites to the next non-scout island clockwise, or nowhere (-1) when
// that walk comes back to i.
func MigrationRoute(scouts []bool) []int {
	k := len(scouts)
	route := make([]int, k)
	for i := range route {
		route[i] = -1
		for step := 1; step < k; step++ {
			if j := (i + step) % k; !scouts[j] {
				route[i] = j
				break
			}
		}
	}
	return route
}

// Inboxes addresses one boundary's exports: island j receives a batch
// from every source i with route[i] == j, in ascending source order. Both
// drivers deliver exactly these batches, in memory or over TCP.
func Inboxes(route []int, exports [][]byte) [][]MigrantBatch {
	inbox := make([][]MigrantBatch, len(route))
	for src, dst := range route {
		if dst >= 0 {
			inbox[dst] = append(inbox[dst], MigrantBatch{From: src, Elites: exports[src]})
		}
	}
	return inbox
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
