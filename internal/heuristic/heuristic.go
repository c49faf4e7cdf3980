// Package heuristic implements the paper's resource-provisioning procedure
// (Section 3.4): with the simulation settings fixed by the user, sweep the
// number of cores assigned to the analyses, find the allocations that
// satisfy Equation 4 (the analysis never throttles the simulation, so the
// makespan is minimized), and among those pick the one that maximizes the
// computational efficiency E. This regenerates Figure 7.
package heuristic

import (
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// SweepPoint is one measurement of the core sweep: the member's
// steady-state behaviour with the analysis on a given core count.
type SweepPoint struct {
	// Cores assigned to the analysis.
	Cores int
	// SimBusy is S_* + W_*.
	SimBusy float64
	// AnaBusy is R_* + A_*.
	AnaBusy float64
	// Sigma is the non-overlapped in situ step σ̄* (Equation 1).
	Sigma float64
	// Efficiency is E (Equation 3).
	Efficiency float64
	// SatisfiesEq4 reports whether R_* + A_* <= S_* + W_*.
	SatisfiesEq4 bool
}

// SweepOptions configures the sweep execution.
type SweepOptions struct {
	// Steps is the number of in situ steps per probe run (default 12 —
	// enough for a stable steady state).
	Steps int
	// Sim overrides the simulated-backend options (jitter, seed, tier).
	Sim runtime.SimOptions
	// SimCores is the fixed simulation allocation (default
	// placement.SimCores = 16, the paper's setting).
	SimCores int
}

func (o SweepOptions) normalized() SweepOptions {
	if o.Steps <= 0 {
		o.Steps = 12
	}
	if o.SimCores <= 0 {
		o.SimCores = placement.SimCores
	}
	return o
}

// CoreSweep measures one co-location-free member (the paper's baseline
// context: simulation on node 0, analysis on node 1) for each analysis
// core count, by running the simulated backend and extracting the steady
// state.
func CoreSweep(spec cluster.Spec, simProf, anaProf cluster.Profile, coreCounts []int, opts SweepOptions) ([]SweepPoint, error) {
	return sweep(spec, simProf, anaProf, coreCounts, opts.normalized(), func(p placement.Placement, es runtime.EnsembleSpec) (core.SteadyState, error) {
		tr, err := runtime.RunSimulated(spec, p, es, opts.Sim)
		if err != nil {
			return core.SteadyState{}, err
		}
		return core.FromMemberTrace(tr.Members[0], core.ExtractOptions{})
	})
}

// sweep prices the probe member at every core count with measure.
func sweep(spec cluster.Spec, simProf, anaProf cluster.Profile, coreCounts []int, opts SweepOptions,
	measure func(placement.Placement, runtime.EnsembleSpec) (core.SteadyState, error)) ([]SweepPoint, error) {
	if len(coreCounts) == 0 {
		return nil, errors.New("heuristic: no core counts to sweep")
	}
	if spec.Nodes < 2 {
		return nil, errors.New("heuristic: the co-location-free probe needs at least 2 nodes")
	}
	var out []SweepPoint
	for _, c := range coreCounts {
		if c <= 0 || c > spec.CoresPerNode {
			return nil, fmt.Errorf("heuristic: analysis core count %d outside (0,%d]", c, spec.CoresPerNode)
		}
		p := placement.Placement{
			Name: fmt.Sprintf("sweep-%dcores", c),
			Members: []placement.Member{{
				Simulation: placement.Component{Nodes: []int{0}, Cores: opts.SimCores},
				Analyses:   []placement.Component{{Nodes: []int{1}, Cores: c}},
			}},
		}
		es := runtime.EnsembleSpec{
			Name:    p.Name,
			Steps:   opts.Steps,
			Members: []runtime.MemberSpec{{Sim: simProf, Analyses: []cluster.Profile{anaProf}}},
		}
		ss, err := measure(p, es)
		if err != nil {
			return nil, fmt.Errorf("heuristic: probing %d cores: %w", c, err)
		}
		e, err := ss.Efficiency()
		if err != nil {
			return nil, fmt.Errorf("heuristic: probing %d cores: %w", c, err)
		}
		out = append(out, SweepPoint{
			Cores:        c,
			SimBusy:      ss.SimBusy(),
			AnaBusy:      ss.Couplings[0].Busy(),
			Sigma:        ss.Sigma(),
			Efficiency:   e,
			SatisfiesEq4: ss.SatisfiesEq4(),
		})
	}
	return out, nil
}

// Recommend applies the paper's selection rule to a sweep: among the
// points whose σ̄* is within tolerance of the minimum (i.e., the makespan
// is minimized, Equation 4 satisfied where possible), pick the one with
// the highest computational efficiency. The paper's instance picks 8
// cores.
func Recommend(points []SweepPoint) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, errors.New("heuristic: no sweep points")
	}
	minSigma := points[0].Sigma
	for _, p := range points[1:] {
		if p.Sigma < minSigma {
			minSigma = p.Sigma
		}
	}
	const tol = 0.01 // 1% of the optimum counts as "minimized"
	best := SweepPoint{Efficiency: -1}
	for _, p := range points {
		if p.Sigma <= minSigma*(1+tol) && p.Efficiency > best.Efficiency {
			best = p
		}
	}
	if best.Efficiency < 0 {
		return SweepPoint{}, errors.New("heuristic: no feasible sweep point")
	}
	return best, nil
}

// PaperCoreCounts is the sweep grid of Figure 7 (1 to 32 cores).
func PaperCoreCounts() []int { return []int{1, 2, 4, 8, 16, 24, 32} }

// AnalyticCoreSweep computes the sweep without running the simulation:
// it prices the same probe placement CoreSweep simulates in closed form
// (runtime.SteadyStates). A probe has one remote read, which the fabric
// never shares, so the closed form is exact and the two sweeps are equal.
func AnalyticCoreSweep(spec cluster.Spec, simProf, anaProf cluster.Profile, coreCounts []int, simCores int) ([]SweepPoint, error) {
	opts := SweepOptions{SimCores: simCores}.normalized()
	return sweep(spec, simProf, anaProf, coreCounts, opts, func(p placement.Placement, es runtime.EnsembleSpec) (core.SteadyState, error) {
		states, _, err := runtime.SteadyStates(spec, p, es)
		if err != nil {
			return core.SteadyState{}, err
		}
		return states[0], nil
	})
}
