package campaign

import (
	"sync"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/runtime"
)

// How a finished job's result reached this service, recorded on the job
// by runRouted and consulted by transition for ledger attribution.
const (
	// servedLocal: executed by this node's own worker (also the
	// fabric-less default).
	servedLocal = ""
	// servedFleet: answered by the owning peer's cache — the fleet tier.
	servedFleet = "fleet"
	// servedForward: executed by the owning peer on our behalf. The
	// campaign is charged here; the cores are accounted on the owner.
	servedForward = "forward"
)

// accountant owns the service's resource ledgers: one per campaign
// (attributing every submission of the campaign, wherever it resolved)
// and one for the node (attributing executions and cache serves that
// happened here — the scope pool federation sums).
type accountant struct {
	node *accounting.Ledger

	mu        sync.Mutex
	campaigns map[string]*accounting.Ledger
}

func newAccountant() *accountant {
	return &accountant{
		node:      accounting.NewLedger(),
		campaigns: make(map[string]*accounting.Ledger),
	}
}

// campaign returns the ledger for a campaign ID, creating it on first
// use; nil for untagged submissions (tracked on the node ledger only).
// Only job creation calls it: a job holds its campaign's ledger, so a
// transition that arrives after the server evicted the campaign charges
// that detached ledger and never re-creates the entry.
func (a *accountant) campaign(id string) *accounting.Ledger {
	if id == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.campaigns[id]
	if !ok {
		l = accounting.NewLedger()
		a.campaigns[id] = l
	}
	return l
}

// lookup returns a campaign's ledger without creating it.
func (a *accountant) lookup(id string) (*accounting.Ledger, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.campaigns[id]
	return l, ok
}

// forgetCampaign drops a campaign's ledger: the HTTP server calls it
// when it evicts the finished campaign (DESIGN.md §10), after which
// CampaignAccounting no longer knows the ID.
func (s *Service) forgetCampaign(id string) {
	s.acct.mu.Lock()
	delete(s.acct.campaigns, id)
	s.acct.mu.Unlock()
}

// acctSpent charges one executed submission: to its campaign ledger cl
// (nil for none); and — when the cores burned on this node (onNode) —
// to the node ledger and the campaign_core_seconds_total metric family.
// A forwarded execution passes onNode=false: the owner accounts the
// cores through its own ExecuteForwardedJSON.
func (s *Service) acctSpent(cl *accounting.Ledger, hash string, jl accounting.JobLedger, onNode bool) {
	if cl != nil {
		cl.RecordSpent(hash, jl)
	}
	if !onNode {
		return
	}
	s.acct.node.RecordSpent(hash, jl)
	classes := accounting.Classes()
	for i, sp := range jl.Splits() {
		s.metrics.coreSeconds.With(classes[i], "busy").Add(sp.Busy)
		s.metrics.coreSeconds.With(classes[i], "idle").Add(sp.Idle)
	}
}

// acctSaved credits one avoided submission to tier, on the campaign
// ledger cl (nil for none), the node ledger and the
// campaign_core_seconds_saved_total family. The node scope is the node
// the submission resolved on — the one whose cache (or closed form) did
// the avoiding.
func (s *Service) acctSaved(cl *accounting.Ledger, hash string, jl accounting.JobLedger, tier string) {
	if cl != nil {
		cl.RecordSaved(hash, jl, tier)
	}
	s.acct.node.RecordSaved(hash, jl, tier)
	s.metrics.coreSaved.With(tier).Add(jl.Total())
}

// acctRunCredits records the overlapping credits of a local execution:
// the closed form that replaced the DES, the plan the World reused.
func (s *Service) acctRunCredits(cl *accounting.Ledger, hash string, jl accounting.JobLedger, info runtime.RunInfo) {
	if info.FastPath {
		s.acctSaved(cl, hash, jl, accounting.TierFastPath)
	}
	if info.PlanReused {
		s.acctSaved(cl, hash, jl, accounting.TierPlanCache)
	}
}

// charge is transition's ledger step. An attempt that ends (any edge out
// of running) is retry waste when the policy re-enqueues it and worker
// wall time when it settles the job; a result is either spent (executed
// here, or by a peer on our behalf) or saved (answered by a cache tier). The ledgers have their own locks and
// their snapshot summation is order-independent, so concurrent
// transitions need no extra serialization.
func (s *Service) charge(j *Job, from jobState, e edge, served string, execSec, waitSec float64) {
	if from == stateRunning {
		for _, l := range [...]*accounting.Ledger{j.ledger, s.acct.node} {
			switch {
			case l == nil: // an untagged submission has no campaign ledger
			case e.to == stateBackoff:
				l.RecordRetryWaste(execSec)
			default:
				l.RecordWall(execSec, waitSec)
			}
		}
	}
	if e.res == nil {
		return
	}
	jl := e.res.Ledger
	switch {
	case from == stateNew:
		s.acctSaved(j.ledger, j.Hash, jl, e.tier)
	case served == servedFleet:
		s.acctSaved(j.ledger, j.Hash, jl, accounting.TierFleet)
	case served == servedForward:
		s.acctSpent(j.ledger, j.Hash, jl, false)
	default:
		s.acctSpent(j.ledger, j.Hash, jl, true)
		s.acctRunCredits(j.ledger, j.Hash, jl, e.info)
	}
}

// CampaignAccounting returns the resource-ledger snapshot of one
// campaign: every submission carrying that campaign tag, attributed as
// spent (executed, locally or via a peer) or saved (served by a cache
// tier), plus overlapping plan-cache and fast-path credits and the
// wall-clock cost. ok is false for a campaign the ledger has never seen
// or has forgotten.
func (s *Service) CampaignAccounting(id string) (accounting.Snapshot, bool) {
	l, ok := s.acct.lookup(id)
	if !ok {
		return accounting.Snapshot{}, false
	}
	return l.Snapshot(), true
}

// NodeAccounting returns this node's resource-ledger snapshot: the
// core-seconds executed on this node's workers (including forwarded
// work it performed for peers) and the core-seconds its tiers avoided.
// Pool federation sums these per-node snapshots into the fleet rollup.
func (s *Service) NodeAccounting() accounting.Snapshot {
	return s.acct.node.Snapshot()
}
