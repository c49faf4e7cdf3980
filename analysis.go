package ensemblekit

import (
	"ensemblekit/internal/core"
	"ensemblekit/internal/heuristic"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/metrics"
	"ensemblekit/internal/scheduler"
	"ensemblekit/internal/trace"
)

// This file exposes the analysis-side extensions of the library: automatic
// steady-state detection, straggler identification, efficiency-sensitivity
// analysis, the joint provisioning grid search, and the annealing
// scheduler.

// GridPoint is one (stride, cores) cell of the joint provisioning sweep.
type GridPoint = heuristic.GridPoint

// GridOptions bounds the joint provisioning sweep.
type GridOptions = heuristic.GridOptions

// Straggler is a slow ensemble member flagged by StragglersOf.
type Straggler = metrics.Straggler

// AnnealOptions tunes the simulated-annealing placement search.
type AnnealOptions = scheduler.AnnealOptions

// AutoSteadyState extracts a member's steady state with data-driven
// warm-up detection (coefficient-of-variation threshold) instead of a
// fixed trim fraction, returning the detected warm-up step count.
func AutoSteadyState(tr *EnsembleTrace, member int) (SteadyState, int, error) {
	if member < 0 || member >= len(tr.Members) {
		return SteadyState{}, 0, errOutOfRange(member, len(tr.Members))
	}
	return core.AutoExtract(tr.Members[member], core.DetectOptions{})
}

// StragglersOf identifies members whose makespan exceeds the ensemble
// median by more than the threshold fraction (0 uses the default 10%).
func StragglersOf(tr *EnsembleTrace, threshold float64) ([]Straggler, error) {
	ens, err := metrics.FromTrace((*trace.EnsembleTrace)(tr))
	if err != nil {
		return nil, err
	}
	return ens.Stragglers(threshold), nil
}

// EfficiencySensitivity returns ∂F/∂E_i for every member at the given
// indicator stage: where a unit of efficiency tuning pays most.
func EfficiencySensitivity(p Placement, efficiencies []float64, stage StageSet) ([]float64, error) {
	return indicators.ObjectiveSensitivity(p, efficiencies, stage)
}

// ProvisioningGrid sweeps the analytic model over the (stride, analysis
// cores) plane — the joint question the paper's Section 3.4 fixes by
// assumption.
func ProvisioningGrid(spec ClusterSpec, opts GridOptions) ([]GridPoint, error) {
	return heuristic.GridSearch(spec, opts)
}

// BestThroughput picks the grid point maximizing MD steps per wall-clock
// second among those satisfying Equation 4.
func BestThroughput(points []GridPoint) (GridPoint, error) {
	return heuristic.BestThroughput(points)
}

// SchedulePlacementAnneal searches placements by simulated annealing with
// a hill-climbing polish — the strategy for instances too large for
// Exhaustive where Greedy's single-move neighbourhood may stall.
func SchedulePlacementAnneal(spec ClusterSpec, es EnsembleSpec, maxNodes int, opts AnnealOptions) (ScheduleResult, error) {
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	return scheduler.Anneal(spec, es, maxNodes, obj, opts)
}
