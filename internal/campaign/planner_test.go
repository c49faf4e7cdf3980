package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

func TestSweepExpansion(t *testing.T) {
	sw := Sweep{
		Placements: placement.ConfigsTable2TwoMember(), // 5
		FaultPlans: []*faults.Plan{
			nil,
			{Name: "flaky", Staging: []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.01}}},
		},
		NodeCounts: []int{0, 4},
		Seeds:      []int64{1, 2, 3},
		Steps:      4,
	}
	cands, err := sw.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 2 * 2; len(cands) != want {
		t.Fatalf("expanded to %d candidates, want %d", len(cands), want)
	}
	for _, c := range cands {
		if len(c.Specs) != 3 {
			t.Fatalf("%s: %d seed jobs, want 3", c.Label, len(c.Specs))
		}
	}
	// Deterministic order: the first candidate is the first placement,
	// fault-free, fitted machine; labels encode the other dimensions.
	if cands[0].Label != "C1.1" {
		t.Errorf("first candidate %q", cands[0].Label)
	}
	if cands[1].Label != "C1.1/nodes=4" {
		t.Errorf("second candidate %q", cands[1].Label)
	}
	if cands[2].Label != "C1.1/faults=flaky" {
		t.Errorf("third candidate %q", cands[2].Label)
	}

	// Expansion is a pure function: same sweep, same jobs, same hashes.
	again, err := sw.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		for k := range cands[i].Specs {
			h1, _ := cands[i].Specs[k].Hash()
			h2, _ := again[i].Specs[k].Hash()
			if h1 != h2 {
				t.Fatalf("candidate %d seed %d: hash differs across expansions", i, k)
			}
		}
	}
}

func TestReplicateMembers(t *testing.T) {
	p := ReplicateMembers(placement.C15(), 4)
	if len(p.Members) != 4 {
		t.Fatalf("%d members, want 4", len(p.Members))
	}
	// C1.5 co-locates each member's coupling; replicas must keep that
	// structure on fresh node blocks.
	for i, m := range p.Members {
		sim := m.Simulation.NodeSet()
		ana := m.Analyses[0].NodeSet()
		if len(sim) != 1 || len(ana) != 1 || sim[0] != ana[0] {
			t.Errorf("member %d lost co-location: sim=%v ana=%v", i, sim, ana)
		}
	}
	used := p.UsedNodes()
	if len(used) != 4 {
		t.Errorf("4 co-located members should use 4 nodes, got %v", used)
	}
}

// TestCampaignMatchesSerial is the acceptance check: a Table 2 campaign
// through the pooled service yields byte-identical per-job traces and the
// identical F(P) ranking to serial RunSimulated evaluation.
func TestCampaignMatchesSerial(t *testing.T) {
	svc, err := NewService(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sw := Sweep{
		Name:       "table2",
		Placements: placement.ConfigsTable2(),
		Steps:      6,
		Sim:        SimConfig{Jitter: 0.02, Seed: 3},
	}
	res, err := RunCampaign(context.Background(), svc, sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Candidates) != 7 {
		t.Fatalf("campaign: %d candidates, %d failed", len(res.Candidates), res.Failed)
	}

	// Serial reference: the exact RunSimulated calls the jobs replay.
	for _, c := range res.Candidates {
		spec := c.Specs[0]
		opts := spec.Sim.Options()
		opts.Faults = spec.Faults
		tr, err := runtime.RunSimulated(spec.Cluster, spec.Placement, spec.Ensemble, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := svc.Job(c.JobIDs[0])
		if !ok {
			t.Fatalf("%s: job %s unknown", c.Label, c.JobIDs[0])
		}
		pooled, err := j.Trace()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pooled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: pooled trace differs from serial RunSimulated", c.Label)
		}
	}

	// Ranking must match a serial evaluation pass over the same traces.
	serialSvc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serialSvc.Close()
	serial, err := RunCampaign(context.Background(), serialSvc, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Ranking) != len(res.Ranking) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(serial.Ranking), len(res.Ranking))
	}
	for i := range res.Ranking {
		if res.Ranking[i] != serial.Ranking[i] {
			t.Errorf("rank %d: pooled %+v vs serial %+v", i, res.Ranking[i], serial.Ranking[i])
		}
	}
}

func TestCampaignWarmRerunIsAllHits(t *testing.T) {
	svc, err := NewService(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sw := Sweep{Placements: placement.ConfigsTable2(), Steps: 4}
	if _, err := RunCampaign(context.Background(), svc, sw); err != nil {
		t.Fatal(err)
	}
	cold := svc.Stats()
	if cold.CacheHits != 0 {
		t.Fatalf("cold run should not hit: %+v", cold)
	}

	res, err := RunCampaign(context.Background(), svc, sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != res.Jobs {
		t.Errorf("warm re-run: %d/%d cache hits, want all", res.CacheHits, res.Jobs)
	}
	warm := svc.Stats()
	if warm.CacheHits != int64(res.Jobs) || warm.CacheMisses != cold.CacheMisses {
		t.Errorf("stats after warm run: %+v", warm)
	}
}

func TestCampaignAveragesSeedsPerCandidate(t *testing.T) {
	svc, err := NewService(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sw := Sweep{
		Placements: []placement.Placement{placement.C15()},
		Seeds:      []int64{1, 2, 3},
		Steps:      4,
		Sim:        SimConfig{Jitter: 0.05},
	}
	res, err := RunCampaign(context.Background(), svc, sw)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Candidates[0]
	if len(c.Results) != 3 || len(c.Hashes) != 3 {
		t.Fatalf("candidate has %d results / %d hashes, want 3", len(c.Results), len(c.Hashes))
	}
	if c.Hashes[0] == c.Hashes[1] {
		t.Error("different seeds should hash differently")
	}
	// The averaged efficiency is the mean of the per-seed efficiencies.
	for m := range c.Efficiencies {
		sum := 0.0
		for _, r := range c.Results {
			sum += r.Efficiencies[m]
		}
		if diff := c.Efficiencies[m] - sum/3; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("member %d: averaged efficiency off by %g", m, diff)
		}
	}
}

func TestCampaignCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(ctx context.Context, spec JobSpec) (*Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunCampaign(ctx, svc, Sweep{Placements: placement.ConfigsTable2(), Steps: 4})
		done <- err
	}()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled campaign returned %v", err)
	}
}

func TestSweepRejectsEmpty(t *testing.T) {
	if _, err := (Sweep{}).Jobs(); err == nil {
		t.Error("empty sweep should fail expansion")
	}
	if _, err := (Sweep{
		Placements: []placement.Placement{placement.C15()},
		Cluster:    cluster.Spec{Nodes: 1, CoresPerNode: 1}, // too small for 16-core sims
	}).Jobs(); err == nil {
		t.Error("infeasible sweep should fail validation at expansion")
	}
	// A member count on a placement with no members has nothing to
	// replicate: the placement fails validation (it used to divide by
	// zero).
	if _, err := (Sweep{
		Placements:   []placement.Placement{{Name: "empty"}},
		MemberCounts: []int{2},
	}).Jobs(); err == nil || !strings.Contains(err.Error(), "no members") {
		t.Errorf("member count on an empty placement: %v, want its validation error", err)
	}
}
