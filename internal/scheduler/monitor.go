package scheduler

import (
	"fmt"
	"math"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// Strategy names a placement-search algorithm for the unified Search entry
// point.
type Strategy string

const (
	// StrategyExhaustive enumerates every placement (paper-scale instances).
	StrategyExhaustive Strategy = "exhaustive"
	// StrategyGreedy is greedy construction plus hill climbing.
	StrategyGreedy Strategy = "greedy"
	// StrategyAnneal is simulated annealing with a hill-climb polish.
	StrategyAnneal Strategy = "anneal"
)

// Progress is a snapshot of an in-flight placement search, delivered to
// Monitor.OnProgress. BestScore is -Inf until a feasible candidate has been
// scored.
type Progress struct {
	// Strategy is the running search algorithm.
	Strategy Strategy
	// Evaluated counts objective evaluations so far.
	Evaluated int
	// BestScore is the best objective value seen so far.
	BestScore float64
	// Elapsed is the wall-clock time since the search started.
	Elapsed time.Duration
	// Final marks the closing snapshot emitted when the search returns.
	Final bool
}

// Monitor observes a placement search without altering it: the objective is
// wrapped so every evaluation is counted and periodic snapshots (every
// Every evaluations, default 50) reach OnProgress, plus one final snapshot
// when the search returns. A nil *Monitor disables profiling.
type Monitor struct {
	// Every is the evaluation cadence between snapshots (default 50).
	Every int
	// OnProgress receives the snapshots. Nil disables the monitor.
	OnProgress func(Progress)
}

// active reports whether the monitor will emit anything.
func (m *Monitor) active() bool { return m != nil && m.OnProgress != nil }

// wrap decorates obj so evaluations are counted and periodically reported;
// *evaluated is the running count.
func (m *Monitor) wrap(strategy Strategy, start time.Time, obj Objective) (wrapped Objective, evaluated *int) {
	evaluated = new(int)
	if !m.active() {
		return obj, evaluated
	}
	every := m.Every
	if every <= 0 {
		every = 50
	}
	best := math.Inf(-1)
	return func(p placement.Placement) (float64, error) {
		s, err := obj(p)
		*evaluated++
		if err == nil && s > best {
			best = s
		}
		if *evaluated%every == 0 {
			m.OnProgress(Progress{
				Strategy:  strategy,
				Evaluated: *evaluated,
				BestScore: best,
				Elapsed:   time.Since(start),
			})
		}
		return s, err
	}, evaluated
}

// Search runs the named strategy over the placement space with optional
// progress monitoring. Every snapshot, the final one included, counts
// objective calls; Result.Evaluated also counts the assignments rejected
// unpriced. opts only applies to StrategyAnneal; the zero value
// uses the annealer's defaults.
func Search(strategy Strategy, spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int,
	obj Objective, mon *Monitor, opts AnnealOptions) (Result, error) {

	start := time.Now()
	wrapped, evaluated := mon.wrap(strategy, start, obj)
	var res Result
	var err error
	switch strategy {
	case StrategyExhaustive:
		res, err = Exhaustive(spec, es, maxNodes, wrapped)
	case StrategyGreedy:
		res, err = GreedyLocalSearch(spec, es, maxNodes, wrapped)
	case StrategyAnneal:
		res, err = Anneal(spec, es, maxNodes, wrapped, opts)
	default:
		return Result{}, fmt.Errorf("scheduler: unknown strategy %q", strategy)
	}
	if err == nil && mon.active() {
		mon.OnProgress(Progress{
			Strategy:  strategy,
			Evaluated: *evaluated,
			BestScore: res.Score,
			Elapsed:   time.Since(start),
			Final:     true,
		})
	}
	return res, err
}
