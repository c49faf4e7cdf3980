package heuristic

import (
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/kernels"
)

// The paper's Section 3.4 notes that the full parameter space — cores per
// component, placements, and the simulation stride — "is intractable as we
// can vary" all of them, and sidesteps it by fixing the simulation
// settings. The analytic model makes a coarse sweep of the
// (stride, analysis cores) plane cheap, so the joint question the paper
// leaves open ("which stride and which analysis allocation together
// maximize efficiency under a makespan budget?") becomes answerable.

// GridPoint is one (stride, cores) cell of the joint sweep.
type GridPoint struct {
	// Stride is the MD steps per in situ step.
	Stride int
	// Cores is the analysis core count.
	Cores int
	// Sigma is the analytic non-overlapped step σ̄*.
	Sigma float64
	// Efficiency is the analytic E.
	Efficiency float64
	// SatisfiesEq4 reports the Idle Analyzer condition.
	SatisfiesEq4 bool
	// StepsForBudget is how many in situ steps fit into the makespan
	// budget at this σ̄* (0 when no budget is set).
	StepsForBudget int
}

// GridOptions bounds the joint sweep.
type GridOptions struct {
	// Strides to evaluate (default: 200, 400, 800, 1600).
	Strides []int
	// Cores to evaluate (default: PaperCoreCounts).
	Cores []int
	// SimCores is the fixed simulation allocation (default 16).
	SimCores int
	// MakespanBudget optionally fixes a wall-clock budget in seconds;
	// StepsForBudget reports the simulated coverage achievable within it.
	MakespanBudget float64
}

func (o GridOptions) normalized() GridOptions {
	if len(o.Strides) == 0 {
		o.Strides = []int{200, 400, 800, 1600}
	}
	if len(o.Cores) == 0 {
		o.Cores = PaperCoreCounts()
	}
	if o.SimCores <= 0 {
		o.SimCores = 16
	}
	return o
}

// GridSearch evaluates the analytic model over the (stride, cores) grid.
func GridSearch(spec cluster.Spec, opts GridOptions) ([]GridPoint, error) {
	opts = opts.normalized()
	var out []GridPoint
	for _, stride := range opts.Strides {
		if stride <= 0 {
			return nil, fmt.Errorf("heuristic: non-positive stride %d", stride)
		}
		simProf := kernels.MDProfile(stride)
		points, err := AnalyticCoreSweep(spec, simProf, kernels.AnalysisProfile(), opts.Cores, opts.SimCores)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			g := GridPoint{
				Stride:       stride,
				Cores:        p.Cores,
				Sigma:        p.Sigma,
				Efficiency:   p.Efficiency,
				SatisfiesEq4: p.SatisfiesEq4,
			}
			if opts.MakespanBudget > 0 && g.Sigma > 0 {
				g.StepsForBudget = int(opts.MakespanBudget / g.Sigma)
			}
			out = append(out, g)
		}
	}
	return out, nil
}

// BestThroughput picks the grid point maximizing simulated MD steps per
// wall-clock second (stride / σ̄*) among the points that satisfy
// Equation 4, breaking ties by efficiency. This answers the joint
// provisioning question: a longer stride amortizes staging but delays
// analyses; Equation 4 keeps the coupling healthy.
func BestThroughput(points []GridPoint) (GridPoint, error) {
	if len(points) == 0 {
		return GridPoint{}, errors.New("heuristic: empty grid")
	}
	best := GridPoint{}
	bestRate := -1.0
	for _, p := range points {
		if !p.SatisfiesEq4 || p.Sigma <= 0 {
			continue
		}
		rate := float64(p.Stride) / p.Sigma
		if rate > bestRate+1e-12 ||
			(rate > bestRate-1e-12 && p.Efficiency > best.Efficiency) {
			best = p
			bestRate = rate
		}
	}
	if bestRate < 0 {
		return GridPoint{}, errors.New("heuristic: no grid point satisfies Equation 4")
	}
	return best, nil
}
