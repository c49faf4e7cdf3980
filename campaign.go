package ensemblekit

import (
	"context"

	"ensemblekit/internal/campaign"
)

// Campaign service: the concurrent ensemble-evaluation engine — a bounded
// worker pool fed by a priority job queue, fronted by a content-addressed
// result cache with singleflight deduplication. Build one with NewService,
// submit JobSpecs (or whole Sweeps via RunCampaign), and share the cache
// across campaigns, as the cmd/ensembled HTTP server does.
type (
	// ServiceConfig sizes the campaign service.
	ServiceConfig = campaign.Config
	// Service is the concurrent evaluation engine.
	Service = campaign.Service
	// JobSpec is the canonical, content-addressable description of one
	// simulated ensemble run.
	JobSpec = campaign.JobSpec
	// Job is a submitted evaluation (Wait for its JobResult).
	Job = campaign.Job
	// JobResult is a completed evaluation's summary (Job.Trace re-runs its trace).
	JobResult = campaign.Result
	// SubmitOptions label and order a submission.
	SubmitOptions = campaign.SubmitOptions
	// ServiceStats snapshots the service's counters (cache hit rate,
	// queue depth, worker activity).
	ServiceStats = campaign.Stats
	// Sweep is a campaign: placements × member counts × fault plans ×
	// node counts × seeds.
	Sweep = campaign.Sweep
	// CampaignResult aggregates a finished campaign, including the F(P)
	// ranking (Eq. 9).
	CampaignResult = campaign.CampaignResult
	// SimConfig is the serializable subset of SimOptions that makes runs
	// content-addressable.
	SimConfig = campaign.SimConfig
)

// Service errors.
var (
	// ErrQueueFull reports that Submit hit the bounded queue's capacity.
	ErrQueueFull = campaign.ErrQueueFull
	// ErrServiceClosed reports a submission after Close.
	ErrServiceClosed = campaign.ErrClosed
)

// NewService starts a campaign service. Callers must Close it.
func NewService(cfg ServiceConfig) (*Service, error) { return campaign.NewService(cfg) }

// NewJobSpec builds a content-addressable job from the familiar
// RunSimulated arguments, growing the machine to fit the placement.
func NewJobSpec(spec ClusterSpec, p Placement, es EnsembleSpec, opts SimOptions) (JobSpec, error) {
	return campaign.NewJob(spec, p, es, opts)
}

// Submit enqueues a job on the service (non-blocking backpressure:
// ErrQueueFull when the queue is at capacity).
func Submit(ctx context.Context, svc *Service, spec JobSpec, opts SubmitOptions) (*Job, error) {
	return svc.Submit(ctx, spec, opts)
}

// RunCampaign expands a sweep over the service's worker pool and
// aggregates the results into the paper's indicator ranking.
func RunCampaign(ctx context.Context, svc *Service, sw Sweep) (*CampaignResult, error) {
	return campaign.RunCampaign(ctx, svc, sw)
}
