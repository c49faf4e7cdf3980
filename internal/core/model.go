// Package core implements the paper's in situ execution model for a single
// ensemble member (Section 3): steady-state fine-grained stages, the
// non-overlapped in situ step σ̄* (Equation 1), the makespan estimate
// (Equation 2), the computational-efficiency indicator E (Equation 3), and
// the Idle Simulation / Idle Analyzer coupling scenarios with the Equation 4
// feasibility condition.
//
// The model is backend-agnostic: it consumes either analytic stage
// durations or steady-state values extracted from execution traces
// (extract.go).
package core

import (
	"errors"
	"fmt"
)

// Coupling holds the steady-state read and analysis stages of one coupling
// (Sim, Ana^i): R_*^i and A_*^i.
type Coupling struct {
	// R is the steady-state read stage R_*^i.
	R float64
	// A is the steady-state analysis stage A_*^i.
	A float64
}

// Busy returns R + A: the coupling's non-idle time per in situ step.
func (c Coupling) Busy() float64 { return c.R + c.A }

// SteadyState holds the steady-state stage durations of one ensemble
// member: the simulation's compute and write stages plus the K couplings.
// Idle stages are derived, not stored — the model's Equation 1 determines
// them.
type SteadyState struct {
	// S is the steady-state simulation stage S_*.
	S float64
	// W is the steady-state write stage W_*.
	W float64
	// Couplings holds R_*^i and A_*^i for each of the K analyses.
	Couplings []Coupling
}

// Validate checks that the steady state is well-formed: non-negative
// stages and at least one coupling.
func (ss SteadyState) Validate() error {
	if ss.S < 0 || ss.W < 0 {
		return fmt.Errorf("core: negative simulation stages S=%v W=%v", ss.S, ss.W)
	}
	if len(ss.Couplings) == 0 {
		return errors.New("core: an ensemble member needs at least one coupling")
	}
	for i, c := range ss.Couplings {
		if c.R < 0 || c.A < 0 {
			return fmt.Errorf("core: coupling %d has negative stages R=%v A=%v", i, c.R, c.A)
		}
	}
	return nil
}

// K returns the number of couplings.
func (ss SteadyState) K() int { return len(ss.Couplings) }

// SimBusy returns S_* + W_*: the simulation's non-idle time per step.
func (ss SteadyState) SimBusy() float64 { return ss.S + ss.W }

// Sigma returns the non-overlapped in situ step σ̄* (Equation 1):
//
//	σ̄* = max(S_* + W_*, R_*^1 + A_*^1, ..., R_*^K + A_*^K)
func (ss SteadyState) Sigma() float64 {
	sigma := ss.SimBusy()
	for _, c := range ss.Couplings {
		if b := c.Busy(); b > sigma {
			sigma = b
		}
	}
	return sigma
}

// Makespan returns the member makespan estimate (Equation 2):
// MAKESPAN = n_steps × σ̄*.
func (ss SteadyState) Makespan(nSteps int) float64 {
	if nSteps < 0 {
		nSteps = 0
	}
	return float64(nSteps) * ss.Sigma()
}

// IdleSim returns the derived steady-state simulation idle stage
// I_*^S = σ̄* − (S_* + W_*).
func (ss SteadyState) IdleSim() float64 {
	return ss.Sigma() - ss.SimBusy()
}

// IdleAnalysis returns the derived steady-state idle stage of analysis i:
// I_*^{A_i} = σ̄* − (A_*^i + R_*^i).
func (ss SteadyState) IdleAnalysis(i int) (float64, error) {
	if i < 0 || i >= len(ss.Couplings) {
		return 0, fmt.Errorf("core: coupling index %d out of range [0,%d)", i, len(ss.Couplings))
	}
	return ss.Sigma() - ss.Couplings[i].Busy(), nil
}

// Efficiency returns the computational efficiency E (Equation 3):
//
//	E = (S_* + W_*)/σ̄* + (Σ_i A_*^i + R_*^i)/(K σ̄*) − 1
//
// which equals the mean over couplings of the non-idle fraction of the
// actual in situ step, 1/K Σ_i (1 − (I_*^S + I_*^{A_i})/σ̄*). Each term
// lies in (−1, 1], so E ∈ (−1, 1]: 1 when no component ever idles, and
// negative only for pathologically unbalanced members (K > 1 with both a
// tiny simulation side and very uneven couplings) where idle time exceeds
// the step itself on average.
func (ss SteadyState) Efficiency() (float64, error) {
	if err := ss.Validate(); err != nil {
		return 0, err
	}
	sigma := ss.Sigma()
	if sigma <= 0 {
		return 0, errors.New("core: zero-length in situ step")
	}
	sum := 0.0
	for _, c := range ss.Couplings {
		sum += c.Busy()
	}
	k := float64(len(ss.Couplings))
	return ss.SimBusy()/sigma + sum/(k*sigma) - 1, nil
}

// Scenario classifies a coupling per Section 3.2.
type Scenario int

const (
	// IdleAnalyzer marks a coupling whose analysis step is faster than the
	// simulation step: the analysis waits for data.
	IdleAnalyzer Scenario = iota
	// IdleSimulation marks a coupling whose analysis step is slower: the
	// simulation waits before it writes the next chunk of data.
	IdleSimulation
	// Balanced marks the boundary case (equal within tolerance).
	Balanced
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case IdleAnalyzer:
		return "IdleAnalyzer"
	case IdleSimulation:
		return "IdleSimulation"
	case Balanced:
		return "Balanced"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// scenarioTolerance is the relative tolerance within which a coupling is
// classified as Balanced.
const scenarioTolerance = 1e-9

// CouplingScenario classifies coupling i: IdleAnalyzer when
// R_*^i + A_*^i < S_* + W_*, IdleSimulation when greater.
func (ss SteadyState) CouplingScenario(i int) (Scenario, error) {
	if i < 0 || i >= len(ss.Couplings) {
		return 0, fmt.Errorf("core: coupling index %d out of range [0,%d)", i, len(ss.Couplings))
	}
	sim := ss.SimBusy()
	ana := ss.Couplings[i].Busy()
	scale := sim
	if ana > scale {
		scale = ana
	}
	switch {
	case scale == 0 || ana < sim-scenarioTolerance*scale:
		return IdleAnalyzer, nil
	case ana > sim+scenarioTolerance*scale:
		return IdleSimulation, nil
	default:
		return Balanced, nil
	}
}

// SatisfiesEq4 reports whether every coupling satisfies the paper's
// Equation 4 feasibility condition R_*^i + A_*^i <= S_* + W_*, i.e. no
// analysis ever throttles the simulation. Under this condition
// σ̄* = S_* + W_* and the member makespan is minimized for the given
// simulation settings (Section 3.4).
func (ss SteadyState) SatisfiesEq4() bool {
	sim := ss.SimBusy()
	for _, c := range ss.Couplings {
		if c.Busy() > sim {
			return false
		}
	}
	return true
}
