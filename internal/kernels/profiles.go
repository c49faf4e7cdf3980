// Package kernels holds the calibrated cost profiles (cluster.Profile) of
// the ensemble components that the simulated backend runs: an
// MD-simulation proxy standing in for GROMACS and a memory-intensive
// analysis proxy standing in for the bipartite eigenvalue analysis of
// Johnston et al. (the paper's reference [16]).
//
// The profiles are calibrated to the scales of the paper's Section 2.2
// (simulation step ~10 s on 16 cores with stride 800; analysis step under
// the simulation step once it has 8 cores, Figure 7).
package kernels

import (
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/units"
)

// Calibration anchors, from the paper's experimental setup (Section 2.2)
// and the heuristic analysis (Section 3.4, Figure 7):
//
//   - a 16-core simulation step with stride 800 takes ~10 s;
//   - an 8-core analysis step takes ~9.4 s — just under the simulation
//     step, which is why the paper settles on 8 analysis cores;
//   - per in situ step the simulation stages one chunk of frames.
const (
	// ReferenceStride is the stride the calibration anchors to.
	ReferenceStride = 800
	// referenceSimSeconds is the 16-core simulation compute stage at the
	// reference stride.
	referenceSimSeconds = 10.0
	// referenceAnaSeconds is the 8-core analysis compute stage.
	referenceAnaSeconds = 9.4
	// DefaultChunkBytes is the staged data volume per in situ step.
	DefaultChunkBytes = 768 * units.MiB
)

// CalibrateInstrPerStep returns the instruction count that makes a
// component with the given CPI and parallel fraction take `target` seconds
// on `cores` cores of a clock-Hz machine when running alone.
func CalibrateInstrPerStep(target, clockHz float64, cores int, cpi, parallelFrac float64) float64 {
	p := cluster.Profile{CPIBase: cpi, ParallelFraction: parallelFrac}
	return target * clockHz * p.Speedup(cores) / cpi
}

// MDProfile returns the calibrated cost profile of the GROMACS-proxy
// simulation for a given stride (MD steps per in situ step). Compute cost
// scales linearly with the stride; the staged chunk volume is fixed at
// DefaultChunkBytes per in situ step.
func MDProfile(stride int) cluster.Profile {
	if stride <= 0 {
		stride = ReferenceStride
	}
	clock := cluster.Cori(1).ClockHz
	scale := float64(stride) / ReferenceStride
	return cluster.Profile{
		Name:             "md-gromacs-proxy",
		Class:            cluster.ClassCompute,
		InstrPerStep:     scale * CalibrateInstrPerStep(referenceSimSeconds, clock, 16, 0.5, 0.99),
		CPIBase:          0.5,
		ParallelFraction: 0.99,
		WorkingSetBytes:  60 * units.MiB,
		LLCRefsPerInstr:  0.002,
		BaseMissRatio:    0.05,
		BytesPerStep:     DefaultChunkBytes,
	}
}

// AnalysisProfile returns the calibrated cost profile of the bipartite
// eigenvalue analysis proxy: memory-intensive (high LLC reference rate and
// base miss ratio, Figure 3) with weaker strong-scaling than the
// simulation.
func AnalysisProfile() cluster.Profile {
	clock := cluster.Cori(1).ClockHz
	return cluster.Profile{
		Name:             "eigen-analysis-proxy",
		Class:            cluster.ClassMemory,
		InstrPerStep:     CalibrateInstrPerStep(referenceAnaSeconds, clock, 8, 1.0, 0.9),
		CPIBase:          1.0,
		ParallelFraction: 0.9,
		WorkingSetBytes:  50 * units.MiB,
		LLCRefsPerInstr:  0.02,
		BaseMissRatio:    0.15,
		BytesPerStep:     DefaultChunkBytes,
	}
}

// ScaledAnalysisProfile returns an analysis profile whose alone compute
// time on 8 cores is scaled by the given factor — used by workload
// generators to produce heterogeneous ensembles.
func ScaledAnalysisProfile(scale float64) cluster.Profile {
	p := AnalysisProfile()
	if scale > 0 {
		p.InstrPerStep *= scale
	}
	return p
}
