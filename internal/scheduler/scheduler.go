// Package scheduler implements the paper's stated future work (Section 7):
// using the performance indicators to schedule the in situ components of a
// workflow ensemble under resource constraints. A placement's quality is
// the objective F(P^{U,A,P}) (Equations 8-9); the scheduler searches the
// placement space for the maximum, either exhaustively (small instances,
// deduplicated up to node relabeling) or by greedy construction plus
// hill-climbing local search (larger instances).
//
// The objective (NewObjective) is the simulated F of a placement, priced
// in closed form wherever the closed form equals the simulation and
// simulated elsewhere. It is a pure function of the placement, called
// in-process one candidate at a time, so a search has no service or
// worker pool behind it and its result depends only on its inputs.
package scheduler

import (
	"errors"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/trace"
)

// Objective scores a placement; higher is better. Implementations return
// an error for placements they cannot evaluate.
type Objective func(p placement.Placement) (float64, error)

// NewObjective scores placements by F at the given indicator stage over
// the members' Equation 3 efficiencies, jitter- and fault-free on flat
// DIMES. It prices a placement once (runtime.PriceSteadyStates): in
// closed form where that equals the simulation, and by the timeline
// kernel, from the same plan, where some NIC fair-shares concurrent
// remote reads. The placement decides, and either way the score is the
// simulation's, to rounding.
func NewObjective(spec cluster.Spec, es runtime.EnsembleSpec, stage indicators.StageSet) Objective {
	return func(p placement.Placement) (float64, error) {
		states, err := runtime.PriceSteadyStates(spec, p, es)
		if err != nil {
			return 0, err
		}
		effs, err := core.StateEfficiencies(states)
		if err != nil {
			return 0, err
		}
		return indicators.Objective(p, effs, stage)
	}
}

// Efficiencies extracts the per-member computational efficiencies
// (Equation 3) from an ensemble trace.
func Efficiencies(tr *trace.EnsembleTrace) ([]float64, error) {
	if tr == nil || len(tr.Members) == 0 {
		return nil, errors.New("scheduler: empty trace")
	}
	return core.Efficiencies(tr.Members)
}
