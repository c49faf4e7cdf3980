// Package runtime executes workflow ensembles: it is the paper's runtime
// system (Figure 2), orchestrating members — each one simulation coupled
// with K analyses — over a data transport layer with the synchronous
// no-buffering protocol of Section 2.1 (the simulation does not write step
// i+1 until every analysis has read step i).
//
// The simulated backend (simulated.go) runs components as discrete-event
// processes over the cluster model, the interference model, and a priced
// DTL tier; fault-free flat-DIMES one-slot runs are served by the timeline
// kernel (kernel.go) with the same bits. This is what regenerates the
// paper's figures. Nothing runs real molecular dynamics or a real staging
// service: the computation is a calibrated cost profile
// (internal/kernels) and a staged chunk is its BytesPerStep, priced by a
// dtl.Tier (DESIGN.md §1).
package runtime

import (
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/kernels"
	"ensemblekit/internal/placement"
)

// MemberSpec describes the workload of one ensemble member.
type MemberSpec struct {
	// Sim is the simulation's cost profile.
	Sim cluster.Profile
	// Analyses holds one cost profile per coupled analysis.
	Analyses []cluster.Profile
}

// EnsembleSpec describes a workflow ensemble's workload: what every
// component computes, independent of where it is placed.
type EnsembleSpec struct {
	// Name labels the ensemble in traces.
	Name string
	// Steps is the number of in situ steps (the paper's n_steps: 37 for
	// 30,000 MD steps at stride 800).
	Steps int
	// Members holds the per-member workloads.
	Members []MemberSpec
}

// Validate checks the spec and its consistency with a placement.
func (es EnsembleSpec) Validate(p placement.Placement) error {
	if es.Steps <= 0 {
		return fmt.Errorf("runtime: ensemble needs positive steps, got %d", es.Steps)
	}
	if len(es.Members) == 0 {
		return errors.New("runtime: ensemble has no members")
	}
	if len(es.Members) != len(p.Members) {
		return fmt.Errorf("runtime: spec has %d members but placement %q has %d",
			len(es.Members), p.Name, len(p.Members))
	}
	for i, m := range es.Members {
		if err := m.Sim.Validate(); err != nil {
			return fmt.Errorf("runtime: member %d simulation: %w", i, err)
		}
		if len(m.Analyses) == 0 {
			return fmt.Errorf("runtime: member %d has no analyses", i)
		}
		if len(m.Analyses) != len(p.Members[i].Analyses) {
			return fmt.Errorf("runtime: member %d has %d analyses but placement has %d",
				i, len(m.Analyses), len(p.Members[i].Analyses))
		}
		for j, a := range m.Analyses {
			if err := a.Validate(); err != nil {
				return fmt.Errorf("runtime: member %d analysis %d: %w", i, j, err)
			}
		}
	}
	return nil
}

// PaperSteps is the paper's in situ step count: 30,000 MD steps at a
// stride of 800.
const PaperSteps = 30000 / 800 // 37

// PaperEnsemble builds the paper's workload: `members` identical members,
// each a GROMACS-proxy simulation at stride 800 coupled with
// `analysesPerSim` identical eigenvalue-analysis proxies, running `steps`
// in situ steps (use PaperSteps for the paper's duration).
func PaperEnsemble(name string, members, analysesPerSim, steps int) EnsembleSpec {
	es := EnsembleSpec{Name: name, Steps: steps}
	for i := 0; i < members; i++ {
		m := MemberSpec{Sim: kernels.MDProfile(kernels.ReferenceStride)}
		for j := 0; j < analysesPerSim; j++ {
			m.Analyses = append(m.Analyses, kernels.AnalysisProfile())
		}
		es.Members = append(es.Members, m)
	}
	return es
}

// SpecForPlacement builds the paper workload shaped to match a placement:
// the member count and per-member analysis counts are taken from the
// placement itself.
func SpecForPlacement(p placement.Placement, steps int) EnsembleSpec {
	es := EnsembleSpec{Name: p.Name, Steps: steps}
	for _, m := range p.Members {
		ms := MemberSpec{Sim: kernels.MDProfile(kernels.ReferenceStride)}
		for range m.Analyses {
			ms.Analyses = append(ms.Analyses, kernels.AnalysisProfile())
		}
		es.Members = append(es.Members, ms)
	}
	return es
}
