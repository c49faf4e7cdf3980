package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// ServiceObjective is SimulatedObjective routed through a campaign
// service: each candidate becomes a content-addressed job, so repeated
// evaluations of the same placement — hill-climb revisits, annealing
// walks crossing old states, a search re-run after a sweep — are answered
// from the cache instead of re-simulated. Scores are identical to
// SimulatedObjective for a fixed seed: the job replays the same
// RunSimulated call, and the service extracts the efficiencies from the
// same trace.
//
// The options must be content-addressable (no Model override); otherwise
// every evaluation returns campaign.ErrNotCacheable.
func ServiceObjective(svc *campaign.Service, spec cluster.Spec, es runtime.EnsembleSpec, opts runtime.SimOptions, stage indicators.StageSet) Objective {
	return func(p placement.Placement) (float64, error) {
		js, err := campaign.NewJob(spec, p, es, opts)
		if err != nil {
			return 0, err
		}
		j, err := svc.SubmitWait(context.Background(), js, campaign.SubmitOptions{Label: p.Name})
		if err != nil {
			return 0, err
		}
		return serviceScore(context.Background(), p, j, stage)
	}
}

// serviceScore waits for a candidate's job and scores it from the
// efficiencies the service already extracted. When members were dropped
// those cover only the survivors, so the trace is re-run and every member
// scored, as SimulatedObjective does.
func serviceScore(ctx context.Context, p placement.Placement, j *campaign.Job, stage indicators.StageSet) (float64, error) {
	res, err := j.Wait(ctx)
	if err != nil {
		return 0, err
	}
	effs := res.Efficiencies
	if res.Dropped > 0 {
		tr, err := j.Trace()
		if err != nil {
			return 0, err
		}
		if effs, err = Efficiencies(tr); err != nil {
			return 0, err
		}
	}
	return indicators.Objective(p, effs, stage)
}

// ExhaustiveService is the parallel form of Exhaustive: it enumerates the
// same deduplicated candidates in the same order with the same
// "candidate-N" names, fans them all out over the service's worker pool,
// and reduces the results back in enumeration order with the same strict
// better-than rule — so the winning placement, its score, and Evaluated
// are identical to the serial search, only the wall clock differs.
func ExhaustiveService(ctx context.Context, svc *campaign.Service, spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, opts runtime.SimOptions, stage indicators.StageSet) (Result, error) {
	shape, err := shapeOf(es)
	if err != nil {
		return Result{}, err
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}

	var cands []fannedCandidate
	enumeratePlacements(spec, shape, maxNodes, func(p placement.Placement) {
		c := fannedCandidate{p: p}
		js, err := campaign.NewJob(spec, p, es, opts)
		if err == nil {
			c.job, err = svc.SubmitWait(ctx, js, campaign.SubmitOptions{Label: p.Name})
		}
		c.err = err
		cands = append(cands, c)
	})

	best := Result{Score: math.Inf(-1)}
	var firstErr error
	for _, c := range cands {
		best.Evaluated++
		score, err := c.score(ctx, stage)
		if err != nil {
			if ctx.Err() != nil {
				return Result{}, ctx.Err()
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if score > best.Score {
			best.Score = score
			best.Placement = c.p
		}
	}
	if math.IsInf(best.Score, -1) {
		if firstErr != nil {
			return Result{}, fmt.Errorf("scheduler: no placement evaluated: %w", firstErr)
		}
		return Result{}, errors.New("scheduler: no valid placement found")
	}
	best.Placement.Name = "exhaustive-best"
	return best, nil
}

// fannedCandidate is one enumerated placement with its in-flight job.
type fannedCandidate struct {
	p   placement.Placement
	job *campaign.Job
	err error
}

// score resolves one fanned-out candidate to its objective value.
func (c *fannedCandidate) score(ctx context.Context, stage indicators.StageSet) (float64, error) {
	if c.err != nil {
		return 0, c.err
	}
	return serviceScore(ctx, c.p, c.job, stage)
}

// SearchService runs Search with a service-backed objective: exhaustive
// searches fan out over the worker pool, greedy and annealing searches
// stay sequential (each step depends on the last) but still hit the
// result cache on revisits.
func SearchService(ctx context.Context, strategy Strategy, svc *campaign.Service, spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int, opts runtime.SimOptions, stage indicators.StageSet, mon *Monitor, annealOpts AnnealOptions) (Result, error) {
	if strategy == StrategyExhaustive && mon == nil {
		return ExhaustiveService(ctx, svc, spec, es, maxNodes, opts, stage)
	}
	return Search(strategy, spec, es, maxNodes, ServiceObjective(svc, spec, es, opts, stage), mon, annealOpts)
}
