package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
)

// Sweep describes a campaign: the cartesian expansion of placements ×
// member counts × fault plans × node counts, each point repeated once per
// seed (the paper's trials). The zero values of every dimension collapse
// it, so Sweep{Placements: placement.ConfigsTable2()} is exactly the
// paper's Table 2 study.
type Sweep struct {
	// Name labels the campaign in reports.
	Name string `json:"name,omitempty"`
	// Placements are the base configurations to evaluate.
	Placements []placement.Placement `json:"placements"`
	// MemberCounts optionally scales each base placement to n members via
	// ReplicateMembers (empty = use the placements as given).
	MemberCounts []int `json:"memberCounts,omitempty"`
	// FaultPlans optionally evaluates every point under each fault plan
	// (empty = one fault-free evaluation). A nil entry means "no faults".
	FaultPlans []*faults.Plan `json:"faultPlans,omitempty"`
	// NodeCounts optionally sizes the machine per point; 0 or an empty
	// list fits the machine to the placement.
	NodeCounts []int `json:"nodeCounts,omitempty"`
	// Seeds are the RNG seeds run per point and averaged (empty =
	// the single seed in Sim.Seed).
	Seeds []int64 `json:"seeds,omitempty"`
	// Steps is the in situ step count (0 = runtime.PaperSteps).
	Steps int `json:"steps,omitempty"`
	// Cluster is the base machine (zero = Cori sized to the placement).
	Cluster cluster.Spec `json:"cluster,omitempty"`
	// Sim configures the simulated backend for every job.
	Sim SimConfig `json:"sim,omitempty"`
	// Stage is the indicator stage the ranking uses (nil = P^{U,A,P}).
	Stage *indicators.StageSet `json:"stage,omitempty"`
	// Priority orders this campaign's jobs in the service queue.
	Priority int `json:"priority,omitempty"`

	// Progress, when non-nil, observes completion: it is called after
	// each job resolves with the number resolved so far and the total.
	Progress func(done, total int) `json:"-"`

	// Campaign tags every job's events with a campaign ID for the
	// service's event stream; the HTTP server assigns the campaign's ID
	// here so SSE subscribers can filter one campaign's transitions.
	Campaign string `json:"-"`
}

// replicaFits reports whether ReplicateMembers(base, n) stays inside the
// work bounds that Validate holds its job to, without building it: the
// replica has at least n components, and its last member block starts at
// node ((n-1)/len(base.Members)) × span. A member count is a bare integer
// from the request, so it must not size the replica before a bound does.
func replicaFits(base placement.Placement, n int) bool {
	span := len(base.UsedNodes())
	return n <= maxJobWork && (span == 0 || (n-1)/len(base.Members) < (maxClusterNodes+span-1)/span)
}

// ReplicateMembers returns a placement with n members: the base members
// cycled, each replica's components shifted onto a fresh block of nodes
// (preserving the base's intra-member co-location structure). It is the
// member-count dimension of a sweep.
func ReplicateMembers(base placement.Placement, n int) placement.Placement {
	span := len(base.UsedNodes())
	out := placement.Placement{Name: fmt.Sprintf("%s-x%d", base.Name, n)}
	for i := 0; i < n; i++ {
		m := base.Members[i%len(base.Members)]
		block := (i / len(base.Members)) * span
		shift := func(c placement.Component) placement.Component {
			nodes := make([]int, 0, len(c.Nodes))
			for _, nd := range c.NodeSet() {
				nodes = append(nodes, nd+block)
			}
			return placement.Component{Nodes: nodes, Cores: c.Cores}
		}
		nm := placement.Member{Simulation: shift(m.Simulation)}
		for _, a := range m.Analyses {
			nm.Analyses = append(nm.Analyses, shift(a))
		}
		out.Members = append(out.Members, nm)
	}
	return out
}

// Candidate identifies one expansion point of a sweep (everything except
// the seed dimension, which is averaged into the candidate's report).
type Candidate struct {
	// Label names the point ("C1.5", "C1.5/faults=flaky/nodes=4").
	Label string `json:"label"`
	// Placement is the evaluated configuration.
	Placement placement.Placement `json:"placement"`
	// Nodes is the machine size (0 = fitted).
	Nodes int `json:"nodes,omitempty"`
	// Fault names the fault plan ("" = none).
	Fault string `json:"fault,omitempty"`
	// Specs holds one job per seed; a campaign the HTTP server ran drops
	// them once it finishes.
	Specs []JobSpec `json:"-"`
}

// Jobs expands the sweep into its candidates, deterministically ordered
// (placements outermost, then member counts, fault plans, node counts;
// seeds innermost within each candidate).
func (sw Sweep) Jobs() ([]Candidate, error) {
	if len(sw.Placements) == 0 {
		return nil, errors.New("campaign: sweep has no placements")
	}
	steps := sw.Steps
	if steps <= 0 {
		steps = runtime.PaperSteps
	}
	memberCounts := sw.MemberCounts
	if len(memberCounts) == 0 {
		memberCounts = []int{0} // identity
	}
	plans := sw.FaultPlans
	if len(plans) == 0 {
		plans = []*faults.Plan{nil}
	}
	nodeCounts := sw.NodeCounts
	if len(nodeCounts) == 0 {
		nodeCounts = []int{0} // fit the placement
	}
	seeds := sw.Seeds
	if len(seeds) == 0 {
		seeds = []int64{sw.Sim.Seed}
	}
	// Count before expanding: an over-bound sweep is refused without
	// building any of its jobs.
	jobs := 1
	for _, n := range []int{len(sw.Placements), len(memberCounts), len(plans), len(nodeCounts), len(seeds)} {
		if jobs *= n; jobs > maxCampaignJobs {
			return nil, fmt.Errorf("%w: the sweep expands to more than %d jobs", errOverBound, maxCampaignJobs)
		}
	}

	var out []Candidate
	for _, base := range sw.Placements {
		for _, mc := range memberCounts {
			p := base
			if mc > 0 && len(base.Members) > 0 {
				if !replicaFits(base, mc) {
					return nil, fmt.Errorf("%w: %q × %d members needs more than %d nodes or %d components",
						errOverBound, base.Name, mc, maxClusterNodes, maxJobWork)
				}
				p = ReplicateMembers(base, mc)
			}
			for _, plan := range plans {
				for _, nodes := range nodeCounts {
					label := p.Name
					if plan != nil && plan.Name != "" {
						label += "/faults=" + plan.Name
					}
					if nodes > 0 {
						label += fmt.Sprintf("/nodes=%d", nodes)
					}
					cand := Candidate{Label: label, Placement: p, Nodes: nodes}
					if plan != nil {
						cand.Fault = plan.Name
					}
					spec := sw.Cluster
					if spec.Nodes == 0 {
						spec = cluster.Cori(1)
					}
					if nodes > 0 {
						spec.Nodes = nodes
					}
					es := runtime.SpecForPlacement(p, steps)
					for _, seed := range seeds {
						sim := sw.Sim
						sim.Seed = seed
						opts := sim.Options()
						opts.Faults = plan
						js, err := NewJob(spec, p, es, opts)
						if err != nil {
							return nil, err
						}
						if err := js.Validate(); err != nil {
							return nil, fmt.Errorf("campaign: %s: %w", label, err)
						}
						cand.Specs = append(cand.Specs, js)
					}
					out = append(out, cand)
				}
			}
		}
	}
	return out, nil
}

// CandidateResult is one evaluated sweep point: its per-seed jobs, the
// trial-averaged efficiencies, and the indicator report.
type CandidateResult struct {
	Candidate
	// JobIDs holds the service job IDs, one per seed.
	JobIDs []string `json:"jobIds"`
	// Hashes holds the content addresses, one per seed.
	Hashes []string `json:"hashes"`
	// CacheHits counts the seeds answered from the cache.
	CacheHits int `json:"cacheHits"`
	// Results holds the per-seed results (nil entries for failed seeds).
	Results []*Result `json:"-"`
	// Efficiencies are the per-member efficiencies averaged over seeds.
	Efficiencies []float64 `json:"efficiencies,omitempty"`
	// Report is the indicator report over the averaged efficiencies.
	Report indicators.Report `json:"report"`
	// Objective is F at the sweep's ranking stage.
	Objective float64 `json:"objective"`
	// Makespan is the mean ensemble makespan over seeds.
	Makespan float64 `json:"makespan"`
	// Err carries the first failure among the candidate's seeds.
	Err string `json:"err,omitempty"`
}

// CampaignResult aggregates a finished campaign.
type CampaignResult struct {
	// Name echoes the sweep name.
	Name string `json:"name"`
	// Stage is the indicator stage of the ranking.
	Stage string `json:"stage"`
	// Candidates holds every sweep point in expansion order.
	Candidates []CandidateResult `json:"candidates"`
	// Ranking orders candidate labels by descending objective (failed
	// candidates excluded) — the paper's F(P) ranking, Eq. 9.
	Ranking []indicators.Ranked `json:"ranking"`
	// Jobs counts the jobs submitted; CacheHits the ones served from the
	// cache; Failed the ones that errored.
	Jobs      int `json:"jobs"`
	CacheHits int `json:"cacheHits"`
	Failed    int `json:"failed"`
	// Failures names the failed or cancelled jobs in expansion order,
	// recorded as the campaign waited on them, so the list survives the
	// jobs' eviction from the service. It feeds the SSE summary and is
	// neither served nor fingerprinted.
	Failures []JobFailure `json:"-"`
}

// JobFailure names one failed or cancelled job in a campaign summary.
type JobFailure struct {
	Job    string `json:"job"`
	Label  string `json:"label,omitempty"`
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Fingerprint hashes the campaign's science — per-candidate labels, job
// hashes, objectives, efficiencies, makespans, failure states, and the
// ranking — into a hex SHA-256. Two runs of the same sweep produce the
// same fingerprint regardless of how they executed: job IDs, cache hits,
// and interleavings differ between a cold run, a warm run, and a
// crash-resumed run, but the results must not. The chaos harness pins a
// resumed campaign against an uninterrupted one with it.
func (r *CampaignResult) Fingerprint() (string, error) {
	type candKey struct {
		Label        string            `json:"label"`
		Hashes       []string          `json:"hashes"`
		Objective    float64           `json:"objective"`
		Efficiencies []float64         `json:"efficiencies"`
		Makespan     float64           `json:"makespan"`
		Report       indicators.Report `json:"report"`
		Err          string            `json:"err,omitempty"`
	}
	key := struct {
		Name       string              `json:"name"`
		Stage      string              `json:"stage"`
		Jobs       int                 `json:"jobs"`
		Failed     int                 `json:"failed"`
		Candidates []candKey           `json:"candidates"`
		Ranking    []indicators.Ranked `json:"ranking"`
	}{Name: r.Name, Stage: r.Stage, Jobs: r.Jobs, Failed: r.Failed, Ranking: r.Ranking}
	for _, c := range r.Candidates {
		key.Candidates = append(key.Candidates, candKey{
			Label:        c.Label,
			Hashes:       c.Hashes,
			Objective:    c.Objective,
			Efficiencies: c.Efficiencies,
			Makespan:     c.Makespan,
			Report:       c.Report,
			Err:          c.Err,
		})
	}
	b, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("campaign: fingerprinting result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Best returns the top-ranked candidate.
func (r *CampaignResult) Best() (CandidateResult, bool) {
	if len(r.Ranking) == 0 {
		return CandidateResult{}, false
	}
	for _, c := range r.Candidates {
		if c.Label == r.Ranking[0].Name {
			return c, true
		}
	}
	return CandidateResult{}, false
}

// RunCampaign expands the sweep, fans every job out over the service
// (blocking backpressure against the bounded queue), and aggregates
// results into the paper's indicator report types as they stream in.
// Job-level failures are recorded per candidate rather than aborting the
// campaign; RunCampaign itself fails only on expansion errors, submission
// errors, or ctx expiry.
func RunCampaign(ctx context.Context, svc *Service, sw Sweep) (*CampaignResult, error) {
	cands, err := sw.Jobs()
	if err != nil {
		return nil, err
	}
	return runCandidates(ctx, svc, sw, cands)
}

// countJobs is the number of jobs the candidates submit.
func countJobs(cands []Candidate) int {
	total := 0
	for _, c := range cands {
		total += len(c.Specs)
	}
	return total
}

// runCandidates is RunCampaign over a sweep already expanded into cands.
func runCandidates(ctx context.Context, svc *Service, sw Sweep, cands []Candidate) (*CampaignResult, error) {
	stage := indicators.StageUAP
	if sw.Stage != nil {
		stage = *sw.Stage
	}
	total := countJobs(cands)
	out := &CampaignResult{Name: sw.Name, Stage: stage.String(), Jobs: total}

	// Fan out everything first — the queue applies backpressure — so the
	// worker pool sees the whole campaign at once. Sweep.Jobs validated
	// every spec, and a candidate's seeds share all but Sim, so its hashes
	// encode the rest once.
	jobs := make([][]*Job, len(cands))
	for i, c := range cands {
		hashes, err := specHashes(c.Specs)
		if err != nil {
			return nil, err
		}
		jobs[i] = make([]*Job, len(c.Specs))
		for k, spec := range c.Specs {
			j, err := svc.submitHashed(ctx, spec, hashes[k], SubmitOptions{Priority: sw.Priority, Label: c.Label, Campaign: sw.Campaign}, true)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("campaign: submitting %s: %w", c.Label, err)
			}
			jobs[i][k] = j
		}
	}

	// Aggregate in expansion order as results stream in.
	done := 0
	var reports []indicators.Report
	for i, c := range cands {
		cr := CandidateResult{Candidate: c}
		for _, j := range jobs[i] {
			cr.JobIDs = append(cr.JobIDs, j.ID)
			cr.Hashes = append(cr.Hashes, j.Hash)
			if j.CacheHit {
				cr.CacheHits++
				out.CacheHits++
			}
			res, err := j.Wait(ctx)
			done++
			if sw.Progress != nil {
				sw.Progress(done, total)
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				out.Failed++
				out.Failures = append(out.Failures, JobFailure{
					Job: j.ID, Label: j.Label, Status: string(j.Status()), Reason: j.Reason(),
				})
				if cr.Err == "" {
					cr.Err = err.Error()
				}
				cr.Results = append(cr.Results, nil)
				continue
			}
			cr.Results = append(cr.Results, res)
		}
		if cr.Err == "" {
			if err := cr.aggregate(stage); err != nil {
				cr.Err = err.Error()
			} else {
				rep := cr.Report
				rep.Name = cr.Label
				reports = append(reports, rep)
			}
		}
		out.Candidates = append(out.Candidates, cr)
	}
	out.Ranking = indicators.Rank(reports, stage)
	return out, nil
}

// aggregate averages the candidate's per-seed results into one report:
// per-member efficiencies are meaned across seeds (the paper's trial
// averaging), then pushed through the indicator arithmetic.
func (cr *CandidateResult) aggregate(stage indicators.StageSet) error {
	perMember := make([][]float64, 0)
	var makespans []float64
	for _, res := range cr.Results {
		if res == nil {
			continue
		}
		if len(perMember) == 0 {
			perMember = make([][]float64, len(res.Efficiencies))
		}
		if len(res.Efficiencies) != len(perMember) {
			return fmt.Errorf("campaign: %s: surviving-member count varies across seeds", cr.Label)
		}
		for i, e := range res.Efficiencies {
			perMember[i] = append(perMember[i], e)
		}
		makespans = append(makespans, res.Makespan)
	}
	if len(perMember) == 0 {
		return fmt.Errorf("campaign: %s: no results", cr.Label)
	}
	effs := make([]float64, len(perMember))
	for i := range effs {
		effs[i] = stats.Mean(perMember[i])
	}
	// Indicator arithmetic needs the surviving placement; without drops
	// this is the full placement. Derive it from the first result's drop
	// mask to stay consistent with Eq. 9 over survivors.
	p := cr.Placement
	if cr.Results[0] != nil {
		p = p.Without(cr.Results[0].DroppedMembers)
	}
	rep, err := indicators.FullReport(p, effs)
	if err != nil {
		return err
	}
	cr.Efficiencies = effs
	cr.Report = rep
	cr.Objective = rep.PerStage[stage.String()]
	cr.Makespan = stats.Mean(makespans)
	return nil
}
