package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"digamma/internal/coopt"
	"digamma/internal/space"
)

// The paper optimizes one objective at a time (latency, power, energy,
// EDP). Real accelerator sign-off wants the trade-off curve instead, so
// the engine also supports multi-objective search in the NSGA-II style:
// fast non-dominated sorting plus crowding-distance selection over the
// same domain-aware operators.

// ParetoResult is the outcome of a multi-objective search.
type ParetoResult struct {
	// Front is the first non-dominated front, sorted by the first
	// objective ascending. All members are constraint-valid.
	Front       []*coopt.Evaluation
	Objectives  []coopt.Objective
	Samples     int
	Generations int
}

// objectiveValue extracts a minimized metric from an evaluation. Invalid
// designs dominate nothing: every objective reads as +Inf.
func objectiveValue(ev *coopt.Evaluation, o coopt.Objective) float64 {
	if !ev.Valid {
		return math.Inf(1)
	}
	switch o {
	case coopt.Latency:
		return ev.Cycles
	case coopt.Energy:
		return ev.EnergyPJ
	case coopt.EDP:
		return ev.EnergyPJ * ev.Cycles
	case coopt.LatencyAreaProduct:
		return ev.LatAreaProd
	default:
		return ev.Fitness
	}
}

// dominates reports whether a is no worse than b on all objectives and
// strictly better on at least one.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// RunPareto runs a multi-objective search within the sampling budget and
// returns the non-dominated front. At least two objectives are required —
// for one, use Run.
func (e *Engine) RunPareto(budget int, objectives []coopt.Objective) (*ParetoResult, error) {
	if budget < 1 {
		return nil, errors.New("core: non-positive budget")
	}
	if len(objectives) < 2 {
		return nil, errors.New("core: RunPareto needs ≥ 2 objectives")
	}
	cfg := e.Config
	pop := cfg.PopSize
	if pop > budget {
		pop = budget
	}

	res := &ParetoResult{Objectives: objectives}
	type pind struct {
		individual
		vals     []float64
		rank     int
		crowding float64
	}
	evalG := func(g space.Genome) (*pind, error) {
		res.Samples++
		// Genomes here are canonical: seeded/random initials and breed
		// output are repaired before reaching this point.
		ev, err := e.Problem.EvaluateCanonical(g)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(objectives))
		for i, o := range objectives {
			vals[i] = objectiveValue(ev, o)
		}
		return &pind{individual: individual{g, ev}, vals: vals}, nil
	}

	// A single ad-hoc island on the engine's own RNG stream carries the
	// operator pipeline (seeding, breeding, HW repair); the NSGA-II
	// machinery below owns selection, so the island's population is set
	// per breeding call.
	is, err := newIsland(e, 0, Profile{Name: "default"}, e.rng, e.Config.PopSize, budget)
	if err != nil {
		return nil, err
	}

	baseLevels := e.Problem.Space.Levels
	cur := make([]*pind, 0, pop)
	for i := 0; i < pop && res.Samples < budget; i++ {
		var g space.Genome
		if i < pop/4 {
			g = is.seedGenome(i)
		} else {
			g = e.Problem.Space.Random(e.rng, baseLevels)
		}
		if !cfg.FixedHW {
			g = is.repairHWBudget(g, nil)
		}
		p, err := evalG(g)
		if err != nil {
			return nil, err
		}
		cur = append(cur, p)
	}
	if len(cur) == 0 {
		return nil, errors.New("core: budget exhausted before first evaluation")
	}

	rankAndCrowd := func(ps []*pind) {
		// Fast non-dominated sorting (quadratic variant).
		n := len(ps)
		domCount := make([]int, n)
		dominated := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if dominates(ps[i].vals, ps[j].vals) {
					dominated[i] = append(dominated[i], j)
				} else if dominates(ps[j].vals, ps[i].vals) {
					domCount[i]++
				}
			}
		}
		var front []int
		for i := 0; i < n; i++ {
			if domCount[i] == 0 {
				ps[i].rank = 0
				front = append(front, i)
			}
		}
		for rank := 0; len(front) > 0; rank++ {
			var next []int
			for _, i := range front {
				for _, j := range dominated[i] {
					domCount[j]--
					if domCount[j] == 0 {
						ps[j].rank = rank + 1
						next = append(next, j)
					}
				}
			}
			front = next
		}
		// Crowding distance per rank, per objective.
		byRank := map[int][]*pind{}
		for _, p := range ps {
			p.crowding = 0
			byRank[p.rank] = append(byRank[p.rank], p)
		}
		for _, group := range byRank {
			for oi := range objectives {
				sort.Slice(group, func(a, b int) bool { return group[a].vals[oi] < group[b].vals[oi] })
				group[0].crowding = math.Inf(1)
				group[len(group)-1].crowding = math.Inf(1)
				span := group[len(group)-1].vals[oi] - group[0].vals[oi]
				if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
					continue
				}
				for k := 1; k < len(group)-1; k++ {
					group[k].crowding += (group[k+1].vals[oi] - group[k-1].vals[oi]) / span
				}
			}
		}
	}

	better := func(a, b *pind) bool {
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.crowding > b.crowding
	}

	for res.Samples < budget {
		rankAndCrowd(cur)
		res.Generations++

		// Binary tournaments on (rank, crowding) feed the single-objective
		// breeding pipeline: install the tournament winners as a
		// two-element island population so the island's own tournament is
		// a no-op choice.
		next := make([]*pind, 0, pop)
		// Elitism: keep the best by (rank, crowding).
		sorted := append([]*pind(nil), cur...)
		sort.Slice(sorted, func(a, b int) bool { return better(sorted[a], sorted[b]) })
		elites := int(float64(pop) * cfg.EliteFrac)
		if elites < 1 {
			elites = 1
		}
		next = append(next, sorted[:elites]...)

		tour := func() *pind {
			a := cur[e.rng.Intn(len(cur))]
			b := cur[e.rng.Intn(len(cur))]
			if better(b, a) {
				return b
			}
			return a
		}
		for len(next) < pop && res.Samples < budget {
			p1, p2 := tour(), tour()
			is.cur = []individual{p1.individual, p2.individual}
			// NSGA-II owns selection and scores from scratch; the dirty
			// set breeding records is not consumed here.
			var dirt space.Dirty
			child, _, _ := is.breed(&dirt)
			c, err := evalG(child)
			if err != nil {
				return nil, err
			}
			next = append(next, c)
		}
		cur = next
	}

	rankAndCrowd(cur)
	seen := map[string]bool{}
	for _, p := range cur {
		if p.rank != 0 || !p.eval.Valid {
			continue
		}
		key := ""
		for _, v := range p.vals {
			key += fmt.Sprintf("%.9g;", v)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		// Front members escape the run; detach them from the analysis
		// slabs (see Result.Best).
		res.Front = append(res.Front, p.eval.Detach())
	}
	sort.Slice(res.Front, func(a, b int) bool {
		return objectiveValue(res.Front[a], objectives[0]) < objectiveValue(res.Front[b], objectives[0])
	})
	return res, nil
}
