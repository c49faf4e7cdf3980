// Package ensemblekit is a framework for executing and assessing ensembles
// of in situ scientific workflows, reproducing "Assessing Resource
// Provisioning and Allocation of Ensembles of In Situ Workflows" (Do,
// Pottier, Ferreira da Silva, Caíno-Lores, Taufer, Deelman — ICPP
// Workshops 2021).
//
// A workflow ensemble is a set of members running concurrently, each
// coupling one simulation with K analyses through in-memory data staging.
// ensemblekit provides:
//
//   - a runtime that executes ensembles on a simulated HPC platform
//     (cluster, interference and interconnect models in the style of
//     Cori);
//   - the paper's efficiency model — non-overlapped in situ steps σ̄*,
//     makespan prediction, computational efficiency E (Equations 1-3);
//   - the multi-stage performance indicators P^U, P^{U,A}, P^{U,A,P} and
//     the ensemble objective F = mean − stddev (Equations 5-9);
//   - the Section 3.4 provisioning heuristic, an indicator-driven
//     placement scheduler, and a benchmark harness regenerating every
//     table and figure of the paper's evaluation.
//
// Quickstart:
//
//	cfg := ensemblekit.ConfigC15()                    // Table 2's best placement
//	spec := ensemblekit.Cori(3)                       // 3 Cori-like nodes
//	es := ensemblekit.SpecForPlacement(cfg, 37)       // the paper's workload
//	tr, err := ensemblekit.RunSimulated(spec, cfg, es, ensemblekit.SimOptions{})
//	...
//	effs, _ := ensemblekit.Efficiencies(tr)
//	f, _ := ensemblekit.Objective(cfg, effs, ensemblekit.StageUAP)
package ensemblekit

import (
	"io"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/heuristic"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
	"ensemblekit/internal/trace"
)

// Hardware and workload specification.
type (
	// ClusterSpec describes the simulated machine.
	ClusterSpec = cluster.Spec
	// Profile is a component's resource-usage profile.
	Profile = cluster.Profile
	// EnsembleSpec is a workflow ensemble's workload.
	EnsembleSpec = runtime.EnsembleSpec
	// MemberSpec is one member's workload.
	MemberSpec = runtime.MemberSpec
	// SimOptions configures the simulated backend.
	SimOptions = runtime.SimOptions
)

// Placement types (the paper's Tables 2-4 notation).
type (
	// Placement maps every ensemble component to node indexes.
	Placement = placement.Placement
	// Member is one member's placement.
	Member = placement.Member
	// Component is one component's placement.
	Component = placement.Component
)

// Model and indicator types.
type (
	// SteadyState holds a member's steady-state stage durations.
	SteadyState = core.SteadyState
	// Coupling is one (Sim, Ana^i) pair's steady-state stages.
	Coupling = core.Coupling
	// StageSet selects the indicator refinement layers.
	StageSet = indicators.StageSet
	// IndicatorReport holds a configuration's objective at every stage.
	IndicatorReport = indicators.Report
	// EnsembleTrace is an execution record.
	EnsembleTrace = trace.EnsembleTrace
	// SweepPoint is one measurement of the Section 3.4 core sweep.
	SweepPoint = heuristic.SweepPoint
	// ScheduleResult is a placement-search outcome.
	ScheduleResult = scheduler.Result
)

// Fault injection and resilience.
type (
	// FaultPlan is a declarative, seeded fault-injection plan.
	FaultPlan = faults.Plan
	// StagingFault injects staging-operation failures.
	StagingFault = faults.StagingFault
	// NodeCrash crashes a node at a virtual time.
	NodeCrash = faults.NodeCrash
	// NetworkWindow degrades interconnect capacity over a time window.
	NetworkWindow = faults.NetworkWindow
	// StragglerFault dilates a component's compute stages over a window
	// (named to avoid colliding with the metrics Straggler report type).
	StragglerFault = faults.Straggler
	// Resilience is the recovery policy applied around a fault plan.
	Resilience = runtime.Resilience
	// DegradationMode selects behaviour once recovery is exhausted.
	DegradationMode = runtime.DegradationMode
)

// Degradation modes.
const (
	// FailFast aborts the ensemble on the first unrecovered failure.
	FailFast = runtime.FailFast
	// DropMember drops the failed member and completes the survivors.
	DropMember = runtime.DropMember
)

// ReadFaultPlan decodes and validates a JSON fault plan (see
// examples/faultplan/plan.json for the format).
func ReadFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.ReadJSON(r) }

// SurvivingEfficiencies extracts E_i for the members that survived the
// run (dropped members excluded) along with the filtered placement to
// aggregate them over (Eq. 9 over survivors).
func SurvivingEfficiencies(p Placement, tr *EnsembleTrace) (Placement, []float64, error) {
	effs, err := core.Efficiencies(tr.SurvivingMembers())
	return p.Without(tr.DroppedMembers()), effs, err
}

// Indicator stage sets (Equations 5-8).
var (
	// StageU is resource usage only.
	StageU = indicators.StageU
	// StageUA adds the placement layer.
	StageUA = indicators.StageUA
	// StageUP adds the provisioning layer.
	StageUP = indicators.StageUP
	// StageUAP is the full indicator P^{U,A,P}.
	StageUAP = indicators.StageUAP
)

// Cori returns a hardware spec modeled after the paper's platform.
func Cori(nodes int) ClusterSpec { return cluster.Cori(nodes) }

// PaperEnsemble builds the paper's workload (stride-800 MD simulations,
// calibrated eigenvalue analyses).
func PaperEnsemble(name string, members, analysesPerSim, steps int) EnsembleSpec {
	return runtime.PaperEnsemble(name, members, analysesPerSim, steps)
}

// SpecForPlacement builds the paper workload shaped to a placement.
func SpecForPlacement(p Placement, steps int) EnsembleSpec {
	return runtime.SpecForPlacement(p, steps)
}

// PaperSteps is the paper's in situ step count (30,000 MD steps, stride
// 800).
const PaperSteps = runtime.PaperSteps

// RunSimulated executes an ensemble on the simulated platform.
func RunSimulated(spec ClusterSpec, p Placement, es EnsembleSpec, opts SimOptions) (*EnsembleTrace, error) {
	return runtime.RunSimulated(spec, p, es, opts)
}

// RunInfo reports how a simulated run was executed (timeline kernel or
// engine, plan reuse, DES event count).
type RunInfo = runtime.RunInfo

// World is the shared immutable state of a campaign: frozen plans plus a
// recycled-environment arena (see SimOptions.World).
type World = runtime.World

// NewWorld returns an empty World.
func NewWorld() *World { return runtime.NewWorld() }

// RunSimulatedInfo is RunSimulated plus execution metadata.
func RunSimulatedInfo(spec ClusterSpec, p Placement, es EnsembleSpec, opts SimOptions) (*EnsembleTrace, RunInfo, error) {
	return runtime.RunSimulatedInfo(spec, p, es, opts)
}

// MemberSteadyState extracts a member's steady-state stages from a trace.
func MemberSteadyState(tr *EnsembleTrace, member int) (SteadyState, error) {
	if member < 0 || member >= len(tr.Members) {
		return SteadyState{}, errOutOfRange(member, len(tr.Members))
	}
	return core.FromMemberTrace(tr.Members[member], core.ExtractOptions{})
}

// Efficiencies extracts every member's computational efficiency E_i
// (Equation 3) from a trace.
func Efficiencies(tr *EnsembleTrace) ([]float64, error) {
	return scheduler.Efficiencies(tr)
}

// Objective computes the ensemble objective F over a placement's member
// indicators at the given stage (Equations 5-9).
func Objective(p Placement, efficiencies []float64, stage StageSet) (float64, error) {
	return indicators.Objective(p, efficiencies, stage)
}

// IndicatorsReport evaluates a configuration at every indicator stage.
func IndicatorsReport(p Placement, efficiencies []float64) (IndicatorReport, error) {
	return indicators.FullReport(p, efficiencies)
}

// PlacementIndicator returns CP_i (Equation 6) for a member.
func PlacementIndicator(m Member) (float64, error) { return indicators.CP(m) }

// Built-in configurations of the paper's Tables 2 and 4.
func ConfigCf() Placement                        { return placement.Cf() }
func ConfigCc() Placement                        { return placement.Cc() }
func ConfigC15() Placement                       { return placement.C15() }
func ConfigsTable2() []Placement                 { return placement.ConfigsTable2() }
func ConfigsTable4() []Placement                 { return placement.ConfigsTable4() }
func ConfigByName(name string) (Placement, bool) { return placement.ByName(name) }

// CoreSweep runs the Section 3.4 provisioning sweep: vary the analysis
// core count against a fixed simulation and measure σ̄* and E.
func CoreSweep(spec ClusterSpec, coreCounts []int) ([]SweepPoint, error) {
	return heuristic.CoreSweep(spec,
		MDProfile(0), AnalysisProfile(), coreCounts, heuristic.SweepOptions{})
}

// RecommendCores applies the paper's selection rule to a sweep.
func RecommendCores(points []SweepPoint) (SweepPoint, error) {
	return heuristic.Recommend(points)
}

// SchedulePlacement searches for the placement maximizing F(P^{U,A,P})
// for the given ensemble, exhaustively up to maxNodes nodes.
func SchedulePlacement(spec ClusterSpec, es EnsembleSpec, maxNodes int) (ScheduleResult, error) {
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	return scheduler.Exhaustive(spec, es, maxNodes, obj)
}

// SchedulePlacementGreedy is the polynomial-time variant for larger
// ensembles.
func SchedulePlacementGreedy(spec ClusterSpec, es EnsembleSpec, maxNodes int) (ScheduleResult, error) {
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	return scheduler.GreedyLocalSearch(spec, es, maxNodes, obj)
}
