package scheduler

import (
	"errors"
	"math"
	"math/rand"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// AnnealOptions tunes the simulated-annealing search.
type AnnealOptions struct {
	// Iterations is the number of proposed moves (default 2000).
	Iterations int
	// InitialTemp scales the acceptance of uphill moves relative to the
	// objective's magnitude (default 0.5: a move losing 50% of the
	// current score is accepted with probability 1/e at the start).
	InitialTemp float64
	// Seed makes the search deterministic.
	Seed int64
	// Progress, when non-nil, is called every ProgressEvery iterations
	// with the iteration count, the current temperature, the current
	// score, and the best score so far. The callback observes the walk
	// without perturbing it (RNG consumption is unchanged).
	Progress func(iteration int, temp, current, best float64)
	// ProgressEvery is the iteration cadence of Progress (default 100).
	ProgressEvery int
}

func (o AnnealOptions) normalized() AnnealOptions {
	if o.Iterations <= 0 {
		o.Iterations = 2000
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = 0.5
	}
	return o
}

// Anneal searches placements by simulated annealing: random single-
// component moves, accepted when improving or with Boltzmann probability
// otherwise, under a geometric cooling schedule. It escapes the local
// optima greedy hill-climbing can stall in, at the cost of more objective
// evaluations.
func Anneal(spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, obj Objective, opts AnnealOptions) (Result, error) {
	opts = opts.normalized()
	s, err := newSpace(spec, es, maxNodes, obj)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Start from the greedy construction: under the variance-penalizing
	// objective F, random starts strand the walk in basins that
	// single-component moves cannot escape (improving one member at a
	// time raises the stddev before it lowers it).
	assignment, err := s.greedyConstruct()
	if err != nil {
		return Result{}, err
	}
	res := Result{Score: math.Inf(-1)}
	evaluate := s.evaluator("anneal-candidate")
	cur, ok := evaluate(assignment)
	res.Evaluated++
	// If the round-robin start is infeasible, walk forward to a feasible
	// random assignment.
	for !ok {
		if res.Evaluated > 200 {
			return Result{}, errors.New("scheduler: annealing found no feasible start")
		}
		for i := range assignment {
			assignment[i] = rng.Intn(s.maxNodes)
		}
		cur, ok = evaluate(assignment)
		res.Evaluated++
	}
	best := append([]int(nil), assignment...)
	bestScore := cur

	temp := opts.InitialTemp * math.Abs(cur)
	if temp == 0 {
		temp = opts.InitialTemp
	}
	cooling := math.Pow(1e-3, 1/float64(opts.Iterations)) // end at 0.1% of start
	progressEvery := opts.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 100
	}
	for it := 0; it < opts.Iterations; it++ {
		i := rng.Intn(s.total)
		old := assignment[i]
		move := rng.Intn(s.maxNodes)
		if move != old {
			assignment[i] = move
			score, ok := evaluate(assignment)
			res.Evaluated++
			accept := false
			if ok {
				if score >= cur {
					accept = true
				} else if temp > 0 && rng.Float64() < math.Exp((score-cur)/temp) {
					accept = true
				}
			}
			if accept {
				cur = score
				if cur > bestScore {
					bestScore = cur
					copy(best, assignment)
				}
			} else {
				assignment[i] = old
			}
		}
		temp *= cooling
		if opts.Progress != nil && (it+1)%progressEvery == 0 {
			opts.Progress(it+1, temp, cur, bestScore)
		}
	}
	// Polish the annealed optimum with deterministic hill climbing — the
	// standard hybrid: annealing finds the basin, local search finds its
	// bottom.
	bestScore = hillClimb(best, s.maxNodes, bestScore, evaluate, &res.Evaluated)
	res.Score = bestScore
	res.Placement = placement.FromAssignment(s.shape, best)
	res.Placement.Name = "anneal-best"
	return res, nil
}
