package scheduler

import (
	"errors"
	"fmt"
	"math"

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
	// Evaluated counts the assignments proposed, including those rejected
	// unpriced (a node over capacity); Exhaustive proposes only feasible
	// ones, so there it equals the objective calls.
	Evaluated int
}

// ShapeOf derives the component core structure of an ensemble spec, the
// shape placement.Enumerate takes: per member, the simulation's cores and
// then each analysis's, at the paper's core counts (16-core simulations,
// 8-core analyses).
func ShapeOf(es runtime.EnsembleSpec) ([][]int, error) {
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

// space is the setup every search shares: the ensemble's shape, the node
// budget (the whole machine when maxNodes is 0 or beyond it), the number
// of components and the objective.
type space struct {
	spec     cluster.Spec
	shape    [][]int
	maxNodes int
	total    int
	obj      Objective
}

func newSpace(spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, obj Objective) (space, error) {
	shape, err := ShapeOf(es)
	if err != nil {
		return space{}, err
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	total := 0
	for _, cores := range shape {
		total += len(cores)
	}
	return space{spec: spec, shape: shape, maxNodes: maxNodes, total: total, obj: obj}, nil
}

// evaluator scores flat node assignments as placements named name; ok is
// false for an assignment the machine cannot hold or the objective
// rejects.
func (s space) evaluator(name string) func(assignment []int) (score float64, ok bool) {
	return func(a []int) (float64, bool) {
		p := placement.FromAssignment(s.shape, a)
		if p.Validate(s.spec) != nil {
			return 0, false
		}
		p.Name = name
		score, err := s.obj(p)
		return score, err == nil
	}
}

// Exhaustive evaluates every valid placement of the ensemble on up to
// maxNodes nodes (deduplicated up to node relabeling, placement.Enumerate)
// and returns the best; on equal scores the first enumerated wins. Its
// cost grows with the number of feasible placements: 23 625 for 3 members
// × 3 analyses on 4 nodes, 347 025 on 5.
func Exhaustive(spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, obj Objective) (Result, error) {
	s, err := newSpace(spec, es, maxNodes, obj)
	if err != nil {
		return Result{}, err
	}
	best := Result{Score: math.Inf(-1)}
	var firstErr error
	err = placement.Enumerate(spec, s.shape, s.maxNodes, func(p placement.Placement) {
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
	if err != nil {
		return Result{}, err
	}
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
	s, err := newSpace(spec, es, maxNodes, obj)
	if err != nil {
		return Result{}, err
	}
	assignment, err := s.greedyConstruct()
	if err != nil {
		return Result{}, err
	}
	evaluate := s.evaluator("greedy-candidate")

	res := Result{Score: math.Inf(-1)}
	score, ok := evaluate(assignment)
	res.Evaluated++
	if !ok {
		return Result{}, errors.New("scheduler: greedy initial placement not evaluable")
	}
	res.Score = score
	res.Score = hillClimb(assignment, s.maxNodes, res.Score, evaluate, &res.Evaluated)
	res.Placement = placement.FromAssignment(s.shape, assignment)
	res.Placement.Name = "greedy-best"
	return res, nil
}

// greedyConstruct packs components in member order: analyses prefer their
// simulation's node (co-location), anything else goes to the least-loaded
// node with room.
func (s space) greedyConstruct() ([]int, error) {
	maxNodes, coresPerNode := s.maxNodes, s.spec.CoresPerNode
	load := make([]int, maxNodes)
	assignment := make([]int, s.total)
	pos := 0
	for _, cores := range s.shape {
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
