package core

import (
	"errors"
	"fmt"

	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
)

// ExtractOptions controls steady-state extraction from traces.
type ExtractOptions struct {
	// WarmupFraction is the fraction of leading steps discarded before
	// averaging (the paper notes executions reach steady state "after a
	// few warm-up steps"). Defaults to 0.1; clamped to [0, 0.9].
	WarmupFraction float64
}

func (o ExtractOptions) warmup(nSteps int) int {
	f := o.WarmupFraction
	if f == 0 {
		f = 0.1
	}
	if f < 0 {
		f = 0
	}
	if f > 0.9 {
		f = 0.9
	}
	w := int(f * float64(nSteps))
	if w >= nSteps {
		w = nSteps - 1
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Efficiencies returns E_i (Eq. 3) of each member, in order: pass
// tr.Members for every member, tr.SurvivingMembers() for the ones the
// drop-member policy kept.
func Efficiencies(members []*trace.MemberTrace) ([]float64, error) {
	effs := make([]float64, 0, len(members))
	for _, m := range members {
		ss, err := FromMemberTrace(m, ExtractOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: member %d: %w", m.Index, err)
		}
		e, err := ss.Efficiency()
		if err != nil {
			return nil, fmt.Errorf("core: member %d: %w", m.Index, err)
		}
		effs = append(effs, e)
	}
	return effs, nil
}

// StateEfficiencies is Efficiencies over steady states already extracted,
// states[i] being member i's.
func StateEfficiencies(states []SteadyState) ([]float64, error) {
	effs := make([]float64, len(states))
	for i, ss := range states {
		e, err := ss.Efficiency()
		if err != nil {
			return nil, fmt.Errorf("core: member %d: %w", i, err)
		}
		effs[i] = e
	}
	return effs, nil
}

// FromMemberTrace extracts the steady-state stage durations of a member
// from its execution trace: per-stage means over the post-warmup steps.
// This is the bridge between measurement (TAU in the paper, the runtime's
// traces here) and the analytic model.
func FromMemberTrace(m *trace.MemberTrace, opts ExtractOptions) (SteadyState, error) {
	if m == nil || m.Simulation == nil {
		return SteadyState{}, errors.New("core: member trace has no simulation")
	}
	if len(m.Analyses) == 0 {
		return SteadyState{}, errors.New("core: member trace has no analyses")
	}
	sMean, err := steadyStageMean(m.Simulation, trace.StageS, opts)
	if err != nil {
		return SteadyState{}, fmt.Errorf("core: simulation %q: %w", m.Simulation.Name, err)
	}
	wMean, err := steadyStageMean(m.Simulation, trace.StageW, opts)
	if err != nil {
		return SteadyState{}, fmt.Errorf("core: simulation %q: %w", m.Simulation.Name, err)
	}
	ss := SteadyState{S: sMean, W: wMean}
	for _, a := range m.Analyses {
		rMean, err := steadyStageMean(a, trace.StageR, opts)
		if err != nil {
			return SteadyState{}, fmt.Errorf("core: analysis %q: %w", a.Name, err)
		}
		aMean, err := steadyStageMean(a, trace.StageA, opts)
		if err != nil {
			return SteadyState{}, fmt.Errorf("core: analysis %q: %w", a.Name, err)
		}
		ss.Couplings = append(ss.Couplings, Coupling{R: rMean, A: aMean})
	}
	return ss, ss.Validate()
}

// steadyStageMean averages the post-warmup durations of one stage.
func steadyStageMean(c *trace.ComponentTrace, s trace.Stage, opts ExtractOptions) (float64, error) {
	durs := c.StageDurations(s)
	if len(durs) == 0 {
		return 0, fmt.Errorf("no recorded steps for stage %v", s)
	}
	return opts.SteadyMean(durs), nil
}

// SteadyMean averages the post-warmup entries of one stage's per-step
// durations (stats.Mean, summed in step order); NaN for no steps.
func (o ExtractOptions) SteadyMean(durs []float64) float64 {
	return stats.Mean(durs[o.warmup(len(durs)):])
}

// MeasuredIdle extracts the mean post-warmup idle stages actually observed
// in the trace: the simulation's I^S and each analysis's I^A. Comparing
// these against the model's derived idles (IdleSim, IdleAnalysis) validates
// Equation 1.
func MeasuredIdle(m *trace.MemberTrace, opts ExtractOptions) (simIdle float64, analysisIdle []float64, err error) {
	if m == nil || m.Simulation == nil {
		return 0, nil, errors.New("core: member trace has no simulation")
	}
	simIdle, err = steadyStageMean(m.Simulation, trace.StageIS, opts)
	if err != nil {
		return 0, nil, err
	}
	for _, a := range m.Analyses {
		idle, err := steadyStageMean(a, trace.StageIA, opts)
		if err != nil {
			return 0, nil, err
		}
		analysisIdle = append(analysisIdle, idle)
	}
	return simIdle, analysisIdle, nil
}

// PredictionReport compares the model's makespan estimate (Equation 2)
// against the measured member makespan.
type PredictionReport struct {
	// Predicted is n_steps × σ̄*.
	Predicted float64
	// Measured is the trace's member makespan (Table 1 definition).
	Measured float64
	// RelativeError is |predicted − measured| / measured.
	RelativeError float64
}

// ValidateModel extracts the steady state of a member trace and reports
// how well Equation 2 predicts the measured makespan. This reproduces the
// paper's implicit validation that the non-overlapped-step model captures
// real member behaviour.
func ValidateModel(m *trace.MemberTrace, opts ExtractOptions) (PredictionReport, error) {
	ss, err := FromMemberTrace(m, opts)
	if err != nil {
		return PredictionReport{}, err
	}
	n := len(m.Simulation.Steps)
	pred := ss.Makespan(n)
	meas := m.Makespan()
	rep := PredictionReport{Predicted: pred, Measured: meas}
	if meas > 0 {
		rep.RelativeError = abs(pred-meas) / meas
	}
	return rep, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
