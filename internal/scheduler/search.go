package scheduler

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// Result is the outcome of a placement search.
type Result struct {
	// Placement is the best placement found.
	Placement placement.Placement
	// Score is its objective value.
	Score float64
	// Evaluated counts objective evaluations performed.
	Evaluated int
}

// shapeOf derives the component core structure of an ensemble spec, using
// the paper's core counts (16-core simulations, 8-core analyses).
func shapeOf(es runtime.EnsembleSpec) ([][]int, error) {
	if len(es.Members) == 0 {
		return nil, errors.New("scheduler: ensemble has no members")
	}
	shape := make([][]int, len(es.Members))
	for i, m := range es.Members {
		if len(m.Analyses) == 0 {
			return nil, fmt.Errorf("scheduler: member %d has no analyses", i)
		}
		cores := []int{placement.SimCores}
		for range m.Analyses {
			cores = append(cores, placement.AnalysisCores)
		}
		shape[i] = cores
	}
	return shape, nil
}

// materialize turns a flat node-assignment vector into a placement.
func materialize(shape [][]int, assignment []int) placement.Placement {
	p := placement.Placement{}
	pos := 0
	for _, cores := range shape {
		m := placement.Member{
			Simulation: placement.Component{Nodes: []int{assignment[pos]}, Cores: cores[0]},
		}
		pos++
		for _, c := range cores[1:] {
			m.Analyses = append(m.Analyses, placement.Component{
				Nodes: []int{assignment[pos]}, Cores: c,
			})
			pos++
		}
		p.Members = append(p.Members, m)
	}
	return p
}

// enumCache memoizes the deduplicated candidate list per
// (spec, shape, maxNodes). The enumeration is exponential in ensemble
// size, and every exhaustive search over the same machine and workload
// used to redo it from scratch; a sweep
// of N searches now enumerates once and replays N-1 times. Cached
// slices are immutable: visitors receive value copies (a winner's
// later rename never reaches the cache), and nothing mutates the
// shared Members backing. enumBuilds/enumHits are test observability.
var (
	enumCache  sync.Map // enumKey JSON -> []placement.Placement
	enumBuilds atomic.Int64
	enumHits   atomic.Int64
)

// enumKey derives the cache key; ok=false (unkeyable input) disables
// caching for the call rather than failing the enumeration.
func enumKey(spec cluster.Spec, shape [][]int, maxNodes int) (string, bool) {
	b, err := json.Marshal(struct {
		Spec     cluster.Spec
		Shape    [][]int
		MaxNodes int
	}{spec, shape, maxNodes})
	if err != nil {
		return "", false
	}
	return string(b), true
}

// enumeratePlacements visits every valid placement of the shape on up to
// maxNodes nodes, deduplicated up to node relabeling, in a deterministic
// canonical order. Candidates arrive named "candidate-N" with N counting
// from 1 in visit order, so repeated searches name (and therefore
// simulate and trace) a candidate identically. Enumerations are memoized
// per (spec, shape, maxNodes); a cache replay visits the identical
// placements in the identical order.
func enumeratePlacements(spec cluster.Spec, shape [][]int, maxNodes int, visit func(placement.Placement)) {
	key, keyed := enumKey(spec, shape, maxNodes)
	if keyed {
		if v, ok := enumCache.Load(key); ok {
			enumHits.Add(1)
			for _, p := range v.([]placement.Placement) {
				visit(p)
			}
			return
		}
	}
	var cands []placement.Placement
	enumerateRaw(spec, shape, maxNodes, func(p placement.Placement) {
		cands = append(cands, p)
		visit(p)
	})
	enumBuilds.Add(1)
	if keyed {
		enumCache.Store(key, cands)
	}
}

// enumerateRaw is the uncached enumeration behind enumeratePlacements:
// the canonical assignments (placement.Assignments) that fit the machine.
func enumerateRaw(spec cluster.Spec, shape [][]int, maxNodes int, visit func(placement.Placement)) {
	total := 0
	for _, cores := range shape {
		total += len(cores)
	}
	count := 0
	placement.Assignments(total, maxNodes, func(assignment []int) {
		p := materialize(shape, assignment)
		if p.Validate(spec) != nil {
			return
		}
		count++
		p.Name = fmt.Sprintf("candidate-%d", count)
		visit(p)
	})
}

// Exhaustive evaluates every valid placement of the ensemble on up to
// maxNodes nodes (deduplicated up to node relabeling) and returns the
// best. Suitable for paper-scale instances (2 members, <= 3 nodes).
func Exhaustive(spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, obj Objective) (Result, error) {
	shape, err := shapeOf(es)
	if err != nil {
		return Result{}, err
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	best := Result{Score: math.Inf(-1)}
	var firstErr error
	enumeratePlacements(spec, shape, maxNodes, func(p placement.Placement) {
		score, err := obj(p)
		best.Evaluated++
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if score > best.Score {
			best.Score = score
			best.Placement = p
		}
	})
	if math.IsInf(best.Score, -1) {
		if firstErr != nil {
			return Result{}, fmt.Errorf("scheduler: no placement evaluated: %w", firstErr)
		}
		return Result{}, errors.New("scheduler: no valid placement found")
	}
	best.Placement.Name = "exhaustive-best"
	return best, nil
}

// GreedyLocalSearch builds an initial placement by packing each member's
// components onto the least-loaded feasible nodes with co-location
// preference, then hill-climbs: repeatedly move single components to other
// nodes while the objective improves. Complexity is polynomial where
// Exhaustive is exponential.
func GreedyLocalSearch(spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, obj Objective) (Result, error) {
	shape, err := shapeOf(es)
	if err != nil {
		return Result{}, err
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	total := 0
	for _, cores := range shape {
		total += len(cores)
	}
	flatCores := make([]int, 0, total)
	for _, cs := range shape {
		flatCores = append(flatCores, cs...)
	}

	assignment, err := greedyConstruct(shape, maxNodes, spec.CoresPerNode)
	if err != nil {
		return Result{}, err
	}

	evaluate := func(a []int) (float64, bool) {
		p := materialize(shape, a)
		if p.Validate(spec) != nil {
			return 0, false
		}
		p.Name = "greedy-candidate"
		s, err := obj(p)
		if err != nil {
			return 0, false
		}
		return s, true
	}

	res := Result{Score: math.Inf(-1)}
	score, ok := evaluate(assignment)
	res.Evaluated++
	if !ok {
		return Result{}, errors.New("scheduler: greedy initial placement not evaluable")
	}
	res.Score = score
	res.Score = hillClimb(assignment, maxNodes, res.Score, evaluate, &res.Evaluated)
	res.Placement = materialize(shape, assignment)
	res.Placement.Name = "greedy-best"
	return res, nil
}

// greedyConstruct packs components in member order: analyses prefer their
// simulation's node (co-location), anything else goes to the least-loaded
// node with room.
func greedyConstruct(shape [][]int, maxNodes, coresPerNode int) ([]int, error) {
	total := 0
	for _, cores := range shape {
		total += len(cores)
	}
	load := make([]int, maxNodes)
	assignment := make([]int, total)
	pos := 0
	for _, cores := range shape {
		simNode := -1
		for ci, c := range cores {
			cand := -1
			if ci > 0 && simNode >= 0 && load[simNode]+c <= coresPerNode {
				cand = simNode
			} else {
				bestLoad := math.MaxInt
				for n := 0; n < maxNodes; n++ {
					if load[n]+c <= coresPerNode && load[n] < bestLoad {
						bestLoad = load[n]
						cand = n
					}
				}
			}
			if cand < 0 {
				return nil, fmt.Errorf("scheduler: greedy construction cannot place a %d-core component", c)
			}
			assignment[pos] = cand
			load[cand] += c
			if ci == 0 {
				simNode = cand
			}
			pos++
		}
	}
	return assignment, nil
}

// hillClimb improves an assignment in place with first-improvement
// single-component moves until no move helps. It returns the final score
// and counts evaluations through evals.
func hillClimb(assignment []int, maxNodes int, score float64, evaluate func([]int) (float64, bool), evals *int) float64 {
	improved := true
	for improved {
		improved = false
		for i := range assignment {
			orig := assignment[i]
			for n := 0; n < maxNodes; n++ {
				if n == orig {
					continue
				}
				assignment[i] = n
				s, ok := evaluate(assignment)
				*evals++
				if ok && s > score+1e-15 {
					score = s
					improved = true
					orig = n // keep the move
				} else {
					assignment[i] = orig
				}
			}
			assignment[i] = orig
		}
	}
	return score
}
