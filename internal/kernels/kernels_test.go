package kernels

import (
	"math"
	"testing"

	"ensemblekit/internal/cluster"
)

func TestProfilesAreValid(t *testing.T) {
	for _, p := range []cluster.Profile{MDProfile(800), MDProfile(0), AnalysisProfile(), ScaledAnalysisProfile(2)} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
	}
}

func TestProfileCalibrationAnchors(t *testing.T) {
	clock := cluster.Cori(1).ClockHz
	simT := MDProfile(800).AloneComputeTime(clock, 16)
	if math.Abs(simT-10.0) > 1e-6 {
		t.Errorf("16-core simulation step = %v, want 10.0 (calibration anchor)", simT)
	}
	anaT := AnalysisProfile().AloneComputeTime(clock, 8)
	if math.Abs(anaT-9.4) > 1e-6 {
		t.Errorf("8-core analysis step = %v, want 9.4 (calibration anchor)", anaT)
	}
	// Analysis stays under the simulation with >= 8 cores (Eq. 4
	// feasibility); exceeds it with few cores (Figure 7 crossover).
	if AnalysisProfile().AloneComputeTime(clock, 4) <= simT {
		t.Error("4-core analysis should exceed the simulation step (Fig. 7)")
	}
	if AnalysisProfile().AloneComputeTime(clock, 8) >= simT {
		t.Error("8-core analysis should be under the simulation step (Fig. 7)")
	}
}

func TestStrideScaling(t *testing.T) {
	clock := cluster.Cori(1).ClockHz
	t800 := MDProfile(800).AloneComputeTime(clock, 16)
	t400 := MDProfile(400).AloneComputeTime(clock, 16)
	if math.Abs(t400*2-t800) > 1e-9 {
		t.Errorf("halving the stride should halve the step: %v vs %v", t400, t800)
	}
}

func TestScaledAnalysisProfile(t *testing.T) {
	clock := cluster.Cori(1).ClockHz
	base := AnalysisProfile().AloneComputeTime(clock, 8)
	doubled := ScaledAnalysisProfile(2).AloneComputeTime(clock, 8)
	if math.Abs(doubled-2*base) > 1e-9 {
		t.Errorf("scale 2 should double analysis time: %v vs %v", doubled, base)
	}
	ignored := ScaledAnalysisProfile(-1).AloneComputeTime(clock, 8)
	if ignored != base {
		t.Error("non-positive scale should be ignored")
	}
}
