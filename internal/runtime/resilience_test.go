package runtime

import (
	"bytes"
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/trace"
)

// traceRetries sums the retry annotations across every stage record.
func traceRetries(tr *trace.EnsembleTrace) int {
	n := 0
	for _, c := range tr.Components() {
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				n += st.Retries
			}
		}
	}
	return n
}

func TestFaultPlanByteIdenticalTraces(t *testing.T) {
	// The acceptance bar of the fault subsystem: the same plan and seed
	// yield byte-identical traces across runs, even with every fault kind
	// active at once and recovery (retries, a crash-restart, a drop)
	// exercised.
	plan := &faults.Plan{
		Name: "everything-at-once",
		Seed: 11,
		Staging: []faults.StagingFault{
			{Tier: TierDimes, Rate: 0.1},
		},
		Network:    []faults.NetworkWindow{{Start: 20, End: 30, Factor: 0.5}},
		Crashes:    []faults.NodeCrash{{Node: 1, At: 35}},
		Stragglers: []faults.Straggler{{Component: "m0.*", Start: 5, End: 25, Factor: 1.3}},
	}
	opts := SimOptions{
		Seed:   3,
		Jitter: 0.02,
		Faults: plan,
		Resilience: Resilience{
			StagingRetries: 4,
			RetryBackoff:   0.02,
			RestartLimit:   1,
			RestartDelay:   0.5,
			Mode:           DropMember,
		},
	}
	run := func() []byte {
		tr := mustRunSim(t, placement.C15(), 12, opts)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same fault plan and seed produced different trace bytes")
	}
	// A different plan seed must perturb the injected faults.
	perturbed := *plan
	perturbed.Seed = 12
	opts2 := opts
	opts2.Faults = &perturbed
	tr2 := mustRunSim(t, placement.C15(), 12, opts2)
	var buf2 bytes.Buffer
	if err := tr2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf2.Bytes()) {
		t.Error("different plan seeds should inject different faults")
	}
}

func TestRetryRecoversInjectedStagingFault(t *testing.T) {
	// A deterministic n-th-operation failure with a retry budget of one:
	// the run completes and exactly one retry is annotated in the trace.
	plan := &faults.Plan{Staging: []faults.StagingFault{{FailAtOp: 3}}}
	tr := mustRunSim(t, placement.Cf(), 6, SimOptions{
		Faults:     plan,
		Resilience: Resilience{StagingRetries: 1, RetryBackoff: 0.01},
	})
	if got := traceRetries(tr); got != 1 {
		t.Errorf("trace records %d retries, want 1", got)
	}
	// Without a budget the same plan aborts the run (historical fail-fast).
	_, err := RunSimulated(cluster.Cori(3), placement.Cf(),
		SpecForPlacement(placement.Cf(), 6), SimOptions{Faults: plan})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Errorf("zero retry budget should surface the injection, got %v", err)
	}
}

func TestCrashRestartResumesStage(t *testing.T) {
	// A node crash with a restart budget: the run completes, the restart
	// is annotated, and the recovery delay shows up in the makespan.
	crash := &faults.Plan{Crashes: []faults.NodeCrash{{Node: 0, At: 30}}}
	base := mustRunSim(t, placement.C15(), 10, SimOptions{})
	tr := mustRunSim(t, placement.C15(), 10, SimOptions{
		Faults:     crash,
		Resilience: Resilience{RestartLimit: 1, RestartDelay: 2},
	})
	restarts := 0
	for _, c := range tr.Components() {
		restarts += c.Restarts
	}
	if restarts == 0 {
		t.Error("no component recorded a crash-restart")
	}
	if len(tr.DroppedMembers()) != 0 {
		t.Errorf("restart budget should absorb the crash, dropped %v", tr.DroppedMembers())
	}
	if tr.Makespan() <= base.Makespan() {
		t.Errorf("crash recovery (%v) should cost makespan over the baseline (%v)",
			tr.Makespan(), base.Makespan())
	}
	for _, m := range tr.Members {
		if got := len(m.Simulation.Steps); got != 10 {
			t.Errorf("member %d completed %d steps, want 10", m.Index, got)
		}
	}
}

func TestCrashDropMember(t *testing.T) {
	// No restart budget + drop-member mode: the crashed member's whole
	// coupling is dropped and annotated; the survivor runs to completion.
	crash := &faults.Plan{Crashes: []faults.NodeCrash{{Node: 1, At: 30}}}
	tr := mustRunSim(t, placement.C15(), 10, SimOptions{
		Faults:     crash,
		Resilience: Resilience{Mode: DropMember},
	})
	dropped := tr.DroppedMembers()
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("dropped members = %v, want [1]", dropped)
	}
	if !tr.Members[1].Dropped() || tr.Members[1].Simulation.Dropped == "" {
		t.Error("member 1 should carry the dropped annotation")
	}
	survivors := tr.SurvivingMembers()
	if len(survivors) != 1 || survivors[0].Index != 0 {
		t.Fatalf("surviving members = %d, want member 0 only", len(survivors))
	}
	if got := len(survivors[0].Simulation.Steps); got != 10 {
		t.Errorf("survivor completed %d steps, want 10", got)
	}
	// The dropped member's partial trace ends near the crash time.
	if mk := tr.Members[1].Makespan(); mk > 31 {
		t.Errorf("dropped member kept running past the crash: makespan %v", mk)
	}
}

func TestCrashFailFast(t *testing.T) {
	// The default mode preserves the historical contract: the ensemble
	// aborts with an error and a partial trace.
	crash := &faults.Plan{Crashes: []faults.NodeCrash{{Node: 1, At: 30}}}
	tr, err := RunSimulated(cluster.Cori(3), placement.C15(),
		SpecForPlacement(placement.C15(), 10), SimOptions{Faults: crash})
	if err == nil || !strings.Contains(err.Error(), "crash") {
		t.Fatalf("fail-fast crash should error, got %v", err)
	}
	if tr == nil {
		t.Fatal("partial trace should be returned on failure")
	}
}

func TestStragglerDilatesCompute(t *testing.T) {
	// A straggler window makes the matching component's compute stages
	// slower while active, and leaves other components alone.
	plan := &faults.Plan{Stragglers: []faults.Straggler{
		{Component: "m0.sim", Factor: 2},
	}}
	base := mustRunSim(t, placement.Cf(), 6, SimOptions{})
	slow := mustRunSim(t, placement.Cf(), 6, SimOptions{Faults: plan})
	sBase := base.Members[0].Simulation.Steps[2].StageDuration(trace.StageS)
	sSlow := slow.Members[0].Simulation.Steps[2].StageDuration(trace.StageS)
	if sSlow < 1.9*sBase {
		t.Errorf("straggler factor 2 should double S: %v vs %v", sSlow, sBase)
	}
	aBase := base.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageA)
	aSlow := slow.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageA)
	if aSlow != aBase {
		t.Errorf("straggler on m0.sim should not touch the analysis: %v vs %v", aSlow, aBase)
	}
}

func TestNetworkDegradationSlowsRemoteRead(t *testing.T) {
	// A bandwidth-degradation window lengthens the remote R stage of the
	// co-location-free configuration while it is active.
	plan := &faults.Plan{Network: []faults.NetworkWindow{
		{Start: 0, End: 1e6, Factor: 0.1},
	}}
	base := mustRunSim(t, placement.Cf(), 6, SimOptions{})
	slow := mustRunSim(t, placement.Cf(), 6, SimOptions{Faults: plan})
	rBase := base.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageR)
	rSlow := slow.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageR)
	if rSlow <= rBase {
		t.Errorf("degraded fabric should slow the remote read: %v vs %v", rSlow, rBase)
	}
	if slow.Makespan() <= base.Makespan() {
		t.Errorf("degraded fabric should cost makespan: %v vs %v", slow.Makespan(), base.Makespan())
	}
}

func TestStageTimeoutExhaustsBudget(t *testing.T) {
	// An absurdly small stage timeout makes every staging attempt time
	// out; once the retry budget is gone the run fails with a partial
	// trace mentioning the timeout.
	tr, err := RunSimulated(cluster.Cori(3), placement.Cf(),
		SpecForPlacement(placement.Cf(), 6), SimOptions{
			Resilience: Resilience{StagingRetries: 2, StageTimeout: 1e-9},
		})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("timeout exhaustion should surface, got %v", err)
	}
	if tr == nil {
		t.Fatal("partial trace should be returned on failure")
	}
}

func TestResilienceValidation(t *testing.T) {
	cases := []Resilience{
		{StagingRetries: -1},
		{RetryBackoff: -1},
		{StageTimeout: -1},
		{RestartLimit: -1},
		{RestartDelay: -1},
		{Mode: DegradationMode(9)},
	}
	for i, res := range cases {
		if err := res.Validate(); err == nil {
			t.Errorf("case %d: invalid policy %+v should fail validation", i, res)
		}
		if _, err := RunSimulated(cluster.Cori(3), placement.Cf(),
			SpecForPlacement(placement.Cf(), 4), SimOptions{Resilience: res}); err == nil {
			t.Errorf("case %d: RunSimulated should reject the policy", i)
		}
	}
	if _, err := ParseDegradationMode("drop-member"); err != nil {
		t.Errorf("drop-member should parse: %v", err)
	}
	if _, err := ParseDegradationMode("bogus"); err == nil {
		t.Error("bogus mode should fail to parse")
	}
}
