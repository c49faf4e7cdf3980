// Package scheduler implements the paper's stated future work (Section 7):
// using the performance indicators to schedule the in situ components of a
// workflow ensemble under resource constraints. A placement's quality is
// the objective F(P^{U,A,P}) (Equations 8-9); the scheduler searches the
// placement space for the maximum, either exhaustively (small instances,
// deduplicated up to node relabeling) or by greedy construction plus
// hill-climbing local search (larger instances).
//
// Two objective evaluators are provided: an analytic one that predicts
// each member's efficiency from the interference model without running the
// discrete-event simulation (fast, slightly optimistic about staging
// contention), and a simulated one that executes the ensemble per
// candidate (slower, exact within the model). Both are pure functions of
// the placement, called in-process one candidate at a time: a simulated
// score is one runtime.RunSimulated, which the timeline kernel serves in
// tens of microseconds, so a search has no service or worker pool behind
// it and its result depends only on its inputs.
package scheduler

import (
	"errors"
	"fmt"

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

// AnalyticObjective predicts F at the given indicator stage from the
// interference model alone: component stage durations are assessed
// statically (remote staging priced without flow sharing), efficiencies
// follow Equation 3, and the indicator arithmetic is exact.
func AnalyticObjective(spec cluster.Spec, model *cluster.Model, es runtime.EnsembleSpec, stage indicators.StageSet) Objective {
	if model == nil {
		model = cluster.NewModel(spec)
	}
	return func(p placement.Placement) (float64, error) {
		states, err := PredictSteadyStates(spec, model, es, p)
		if err != nil {
			return 0, err
		}
		effs := make([]float64, len(states))
		for i, ss := range states {
			e, err := ss.Efficiency()
			if err != nil {
				return 0, err
			}
			effs[i] = e
		}
		return indicators.Objective(p, effs, stage)
	}
}

// SimulatedObjective scores placements by running the simulated backend
// and extracting efficiencies from the trace.
func SimulatedObjective(spec cluster.Spec, es runtime.EnsembleSpec, opts runtime.SimOptions, stage indicators.StageSet) Objective {
	return func(p placement.Placement) (float64, error) {
		spec := specFor(spec, p)
		tr, err := runtime.RunSimulated(spec, p, es, opts)
		if err != nil {
			return 0, err
		}
		effs, err := Efficiencies(tr)
		if err != nil {
			return 0, err
		}
		return indicators.Objective(p, effs, stage)
	}
}

// specFor grows the machine if the placement names nodes beyond it.
func specFor(spec cluster.Spec, p placement.Placement) cluster.Spec {
	max := 0
	for _, n := range p.UsedNodes() {
		if n+1 > max {
			max = n + 1
		}
	}
	if max > spec.Nodes {
		spec.Nodes = max
	}
	return spec
}

// Efficiencies extracts the per-member computational efficiencies
// (Equation 3) from an ensemble trace.
func Efficiencies(tr *trace.EnsembleTrace) ([]float64, error) {
	if tr == nil || len(tr.Members) == 0 {
		return nil, errors.New("scheduler: empty trace")
	}
	return core.Efficiencies(tr.Members)
}

// PredictSteadyStates computes each member's analytic steady state for a
// placement: compute stages from the interference assessment, staging
// stages from the model's cost formulas (DIMES semantics: local copies
// when co-located, uncontended remote gets otherwise).
func PredictSteadyStates(spec cluster.Spec, model *cluster.Model, es runtime.EnsembleSpec, p placement.Placement) ([]core.SteadyState, error) {
	spec = specFor(spec, p)
	if err := p.Validate(spec); err != nil {
		return nil, err
	}
	if err := es.Validate(p); err != nil {
		return nil, err
	}
	machine, err := cluster.NewMachine(spec)
	if err != nil {
		return nil, err
	}
	type alloc struct {
		tenant *cluster.Tenant
		node   int
	}
	sims := make([]alloc, len(p.Members))
	anas := make([][]alloc, len(p.Members))
	for i, m := range p.Members {
		ns := m.Simulation.NodeSet()
		if len(ns) != 1 {
			return nil, fmt.Errorf("scheduler: member %d simulation spans %d nodes", i, len(ns))
		}
		t, err := machine.Allocate(fmt.Sprintf("m%d.sim", i), ns[0], m.Simulation.Cores, es.Members[i].Sim)
		if err != nil {
			return nil, err
		}
		sims[i] = alloc{tenant: t, node: ns[0]}
		anas[i] = make([]alloc, len(m.Analyses))
		for j, a := range m.Analyses {
			ans := a.NodeSet()
			if len(ans) != 1 {
				return nil, fmt.Errorf("scheduler: member %d analysis %d spans %d nodes", i, j, len(ans))
			}
			at, err := machine.Allocate(fmt.Sprintf("m%d.ana%d", i, j), ans[0], a.Cores, es.Members[i].Analyses[j])
			if err != nil {
				return nil, err
			}
			anas[i][j] = alloc{tenant: at, node: ans[0]}
			if ans[0] != ns[0] {
				t.RemoteReaders++
			}
		}
	}
	out := make([]core.SteadyState, len(p.Members))
	for i := range p.Members {
		node, _ := machine.Node(sims[i].node)
		sa, err := model.Assess(node, sims[i].tenant)
		if err != nil {
			return nil, err
		}
		bytes := es.Members[i].Sim.BytesPerStep
		ss := core.SteadyState{
			S: sa.ComputeTime,
			W: model.SerializeTime(bytes) + model.LocalCopyTime(bytes),
		}
		for j := range anas[i] {
			anode, _ := machine.Node(anas[i][j].node)
			aa, err := model.Assess(anode, anas[i][j].tenant)
			if err != nil {
				return nil, err
			}
			var r float64
			if anas[i][j].node == sims[i].node {
				r = model.LocalCopyTime(bytes) + model.DeserializeTime(bytes)
			} else {
				r = model.RemoteGetBaseTime(bytes) + model.DeserializeTime(bytes)
			}
			ss.Couplings = append(ss.Couplings, core.Coupling{R: r, A: aa.ComputeTime})
		}
		out[i] = ss
	}
	return out, nil
}
