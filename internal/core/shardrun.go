// The worker half of the transport seam: ShardRunner steps an owned
// subset of a run's islands through the same island methods as
// Engine.RunContext, and Schedule is the coordinator half — a pure
// simulation of the run's sample-spend arithmetic, so the coordinator
// knows every round's shape (bodies, boundaries, the final generation)
// without any runtime synchronization on sample counts.
package core

import (
	"errors"
	"fmt"
)

// Segment is one coordinator round: a maximal run of generation bodies in
// which islands need no cross-island communication. Only the last body of
// a segment may be a migration boundary; a segment ends early when the
// budget runs dry mid-stretch.
type Segment struct {
	StartGen int  // generation number of the segment's first body (1-based)
	Bodies   int  // bodies in this segment (≥ 1)
	Boundary bool // the last body is a migration boundary

	// Per-body cumulative accounting after each body, for progress
	// emission: total samples, and the full/scout attribution (under
	// Config.Prune the full figure includes bound-pruned screens — the
	// split is only known to the workers; Result counters stay exact).
	PerBodyTotal []int
	PerBodyFull  []int
	PerBodyScout []int

	// IslandSamples is each island's cumulative spend after the segment
	// completes — the coordinator's cross-check against worker reports.
	IslandSamples []int
	Total         int // global samples after the segment
}

// Schedule simulates the engine's sample-spend arithmetic body by body:
// initial batches, per-body brood sizes clamped by island budget shares,
// and scout re-score spends at migration boundaries. Every quantity is a
// pure function of the RunPlan, so coordinator and workers agree on the
// run's shape without exchanging counters.
type Schedule struct {
	plan        *RunPlan
	gen         int
	total       int
	full, scout int
	samp        []int // per-island cumulative samples
	plen        []int // per-island current population length
}

// NewSchedule starts the simulation at the post-initial-batch boundary
// (each island has evaluated its initial population).
func NewSchedule(plan *RunPlan) *Schedule {
	s := &Schedule{
		plan: plan,
		samp: make([]int, len(plan.Islands)),
		plen: make([]int, len(plan.Islands)),
	}
	for i, ip := range plan.Islands {
		s.samp[i] = ip.Pop
		s.plen[i] = ip.Pop
		s.total += ip.Pop
		if ip.Scout {
			s.scout += ip.Pop
		} else {
			s.full += ip.Pop
		}
	}
	return s
}

// Next returns the next segment, or nil when the budget is exhausted and
// the run should finalize. Mirrors the engine loop exactly: a body runs
// iff total < budget at its top; a boundary body re-scores scout elites
// before breeding; breeding spends min(pop−elites, islandBudget−spent)
// per island and re-sizes the population to elites+brood.
func (s *Schedule) Next() *Segment {
	if s.total >= s.plan.Budget {
		return nil
	}
	seg := &Segment{StartGen: s.gen + 1}
	for s.total < s.plan.Budget {
		s.gen++
		seg.Bodies++
		boundary := s.gen%s.plan.MigrateEvery == 0
		if boundary {
			for i, ip := range s.plan.Islands {
				if !ip.Scout {
					continue
				}
				if spend := min(ip.Elites, s.plen[i], ip.Budget-s.samp[i]); spend > 0 {
					s.samp[i] += spend
					s.total += spend
					s.full += spend // re-scores run the full model
				}
			}
		}
		for i, ip := range s.plan.Islands {
			need := min(ip.Pop-ip.Elites, ip.Budget-s.samp[i])
			if need > 0 {
				s.samp[i] += need
				s.total += need
				s.plen[i] = ip.Elites + need
				if ip.Scout {
					s.scout += need
				} else {
					s.full += need
				}
			}
		}
		seg.PerBodyTotal = append(seg.PerBodyTotal, s.total)
		seg.PerBodyFull = append(seg.PerBodyFull, s.full)
		seg.PerBodyScout = append(seg.PerBodyScout, s.scout)
		if boundary {
			seg.Boundary = true
			break
		}
	}
	seg.Total = s.total
	seg.IslandSamples = append([]int(nil), s.samp...)
	return seg
}

// Generations reports how many bodies have been scheduled so far; after
// Next returns nil this is the run's final Result.Generations.
func (s *Schedule) Generations() int { return s.gen }

// MigrantBatch is one source island's elite export addressed to a
// destination: batches are applied in ascending From order, replicating
// the engine's ascending-source replacement sweep. Elites is the source's
// ShardReport.Exports, forwarded byte for byte.
type MigrantBatch struct {
	From   int    `json:"from"`
	Elites []byte `json:"elites"`
}

// ShardReport is a worker's per-island round result: the per-body history
// contributions (non-scout islands only — scouts never report the global
// best), cumulative counters and the boundary elite exports in the
// AppendStates encoding. It carries no island snapshot: a coordinator
// that loses a worker rebuilds the island elsewhere by replaying the
// rounds it already drove.
type ShardReport struct {
	Island  int `json:"island"`
	Gen     int `json:"gen"`     // completed bodies so far
	Samples int `json:"samples"` // cumulative island spend

	Hist    []float64 `json:"hist,omitempty"`
	Exports []byte    `json:"exports,omitempty"`
}

// ShardFinal is a worker's per-island finalize result: the sorted
// population's best (non-scout islands; a one-state AppendStates
// encoding) and the island's cumulative accounting and telemetry, summed
// by the coordinator into the Result.
type ShardFinal struct {
	Island  int  `json:"island"`
	IsScout bool `json:"scout,omitempty"`

	Best []byte `json:"best,omitempty"`

	Samples      int    `json:"samples"`
	FullEvals    int    `json:"full_evals"`
	PrunedEvals  int    `json:"pruned_evals"`
	ScoutEvals   int    `json:"scout_evals"`
	DeltaEvals   int    `json:"delta_evals"`
	LayersReused int    `json:"layers_reused"`
	PoolGets     uint64 `json:"pool_gets"`
	PoolReuses   uint64 `json:"pool_reuses"`
}

// shardState is the runner's per-island bookkeeping beyond what the
// island itself tracks: the boundary phase latch and the island's share
// of the run's Result, booked by the engine's own accounting
// (Generations counts the completed bodies).
type shardState struct {
	owned       bool
	midBoundary bool // Advance stopped at a boundary; CompleteBoundary pending
	res         Result
}

// ShardRunner steps a subset of a run's islands on a worker process. It
// builds ALL of the run's islands — buildIslands draws the per-island
// seeds from the master stream, so every worker derives identical island
// configurations from the run seed alone — but only owned islands are
// ever initialized or stepped. Every island starts fresh: stepping is a
// pure function of the seed and the migrants delivered, so an island
// re-homed after a worker loss is rebuilt by replaying its rounds.
type ShardRunner struct {
	e       *Engine
	islands []*island
	st      []shardState
	workers int
}

// NewShardRunner assembles a runner for the engine's run at this budget.
// Requires a multi-island plan. Samples are booked per island, so an
// OnEvaluation hook on the engine sees each island's own sample indices.
func NewShardRunner(e *Engine, budget int) (*ShardRunner, error) {
	if e.Resume != nil {
		return nil, errors.New("core: shard runner does not support resumed runs")
	}
	if budget < 1 {
		return nil, errors.New("core: non-positive budget")
	}
	islands, err := e.buildIslands(budget)
	if err != nil {
		return nil, err
	}
	if len(islands) < 2 {
		return nil, fmt.Errorf("core: shard runner needs ≥ 2 islands, run builds %d", len(islands))
	}
	return &ShardRunner{
		e:       e,
		islands: islands,
		st:      make([]shardState, len(islands)),
		workers: max(e.Config.Workers, 1),
	}, nil
}

// Islands reports the run's island count (the handshake cross-check).
func (r *ShardRunner) Islands() int { return len(r.islands) }

// Own adopts one island: seed is cross-checked against the locally
// derived stream seed (catching divergent builds at assignment time
// instead of as silently different results), then the island is
// initialized — the engine's initial batch, drawn and evaluated here.
func (r *ShardRunner) Own(id int, seed int64) error {
	if id < 0 || id >= len(r.islands) {
		return fmt.Errorf("core: island %d out of range [0,%d)", id, len(r.islands))
	}
	is, sh := r.islands[id], &r.st[id]
	if sh.owned {
		return fmt.Errorf("core: island %d already owned", id)
	}
	if is.seed != seed {
		return fmt.Errorf("core: island %d seed mismatch: assigned %d, derived %d (divergent spec?)", id, seed, is.seed)
	}
	sh.owned = true
	initial := is.initialGenomes()
	evs, err := is.evaluateBatch(initial, nil, nil, r.workers)
	if err != nil {
		return err
	}
	r.e.account(&sh.res, is, evs)
	is.install(0, initial, evs)
	return nil
}

// owned resolves an island id taken off the wire for every entry point
// after Own: range-checked, so a malformed request is an error, never an
// index panic.
func (r *ShardRunner) owned(id int) (*island, *shardState, error) {
	if id < 0 || id >= len(r.islands) {
		return nil, nil, fmt.Errorf("core: island %d out of range [0,%d)", id, len(r.islands))
	}
	if !r.st[id].owned {
		return nil, nil, fmt.Errorf("core: island %d not owned", id)
	}
	return r.islands[id], &r.st[id], nil
}

// breedBody runs the breeding half of one generation body: breedEvaluate,
// accounting, install. A zero brood (budget share spent) installs
// nothing, exactly like the engine's idle path. It takes no crew: worker
// processes placed on one host would each spin helpers on the same cores
// (an 8-island islands-dist run with GOMAXPROCS workers ran ~29% slower
// with crews on two cores), so the brood is bred, then scored.
func (r *ShardRunner) breedBody(is *island, sh *shardState) error {
	evs, err := is.breedEvaluate(nil, r.workers)
	if err != nil {
		return err
	}
	if len(evs) > 0 {
		r.e.account(&sh.res, is, evs)
		is.install(is.elites, is.children[:len(evs)], evs)
	}
	sh.res.Generations++
	return nil
}

// Advance steps one owned island through `bodies` generation bodies. When
// boundary is set, the LAST body stops at the migration exchange: begin,
// the history contribution, then exportElites — leaving the island
// mid-body until CompleteBoundary delivers the incoming migrants.
func (r *ShardRunner) Advance(id, bodies int, boundary bool) (*ShardReport, error) {
	is, sh, err := r.owned(id)
	if err != nil {
		return nil, err
	}
	if sh.midBoundary {
		return nil, fmt.Errorf("core: island %d has a pending migration boundary", id)
	}
	if bodies < 1 {
		return nil, fmt.Errorf("core: island %d: non-positive body count %d", id, bodies)
	}
	rep := &ShardReport{Island: id}
	for b := 0; b < bodies; b++ {
		is.begin()
		if !is.scout {
			rep.Hist = append(rep.Hist, is.cur[0].eval.Fitness)
		}
		if boundary && b == bodies-1 {
			if rep.Exports, err = is.exportElites(sh.res.Generations+1, r.e.rescored(&sh.res)); err != nil {
				return nil, err
			}
			sh.midBoundary = true
			break
		}
		if err := r.breedBody(is, sh); err != nil {
			return nil, err
		}
	}
	rep.Gen, rep.Samples = sh.res.Generations, is.samples
	return rep, nil
}

// CompleteBoundary finishes a boundary body: receiveMigrants applies the
// incoming batches — each From a distinct island of the run — and
// re-sorts, then the body's breeding half runs. Must be called for EVERY
// owned island at a boundary, with an empty batch list for islands that
// receive nothing (scouts, unlucky ring positions): the sort still runs.
func (r *ShardRunner) CompleteBoundary(id int, batches []MigrantBatch) (*ShardReport, error) {
	is, sh, err := r.owned(id)
	if err != nil {
		return nil, err
	}
	if !sh.midBoundary {
		return nil, fmt.Errorf("core: island %d has no pending migration boundary", id)
	}
	from := make([]bool, len(r.islands))
	for _, b := range batches {
		if b.From < 0 || b.From >= len(r.islands) || from[b.From] {
			return nil, fmt.Errorf("core: island %d: migrant batch from island %d is out of range or repeated", id, b.From)
		}
		from[b.From] = true
	}
	if err := is.receiveMigrants(batches); err != nil {
		return nil, err
	}
	if err := r.breedBody(is, sh); err != nil {
		return nil, err
	}
	sh.midBoundary = false
	return &ShardReport{Island: id, Gen: sh.res.Generations, Samples: is.samples}, nil
}

// Finalize sorts an owned island one last time (the engine's finalize
// sweep) and reports its best individual and cumulative accounting.
func (r *ShardRunner) Finalize(id int) (*ShardFinal, error) {
	is, sh, err := r.owned(id)
	if err != nil {
		return nil, err
	}
	if sh.midBoundary {
		return nil, fmt.Errorf("core: island %d has a pending migration boundary", id)
	}
	is.sortPop()
	res := &sh.res
	r.e.collectDelta(res, r.islands[id:id+1])
	fin := &ShardFinal{
		Island:       id,
		IsScout:      is.scout,
		Samples:      res.Samples,
		FullEvals:    res.FullEvals,
		PrunedEvals:  res.PrunedEvals,
		ScoutEvals:   res.ScoutEvals,
		DeltaEvals:   res.DeltaEvals,
		LayersReused: res.LayersReused,
		PoolGets:     res.PoolGets,
		PoolReuses:   res.PoolReuses,
	}
	if !is.scout && len(is.cur) > 0 {
		fin.Best = appendIndividuals(nil, is.cur[:1])
	}
	return fin, nil
}
