package runtime

import (
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/network"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/trace"
)

func mustRunSim(t *testing.T, cfg placement.Placement, steps int, opts SimOptions) *trace.EnsembleTrace {
	t.Helper()
	spec := cluster.Cori(3)
	es := SpecForPlacement(cfg, steps)
	tr, err := RunSimulated(spec, cfg, es, opts)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: invalid trace: %v", cfg.Name, err)
	}
	return tr
}

func TestSimulatedBasicExecution(t *testing.T) {
	tr := mustRunSim(t, placement.Cf(), 10, SimOptions{})
	if tr.Backend != "simulated" || tr.Config != "C_f" {
		t.Errorf("metadata: %q %q", tr.Backend, tr.Config)
	}
	if len(tr.Members) != 1 {
		t.Fatalf("members = %d", len(tr.Members))
	}
	m := tr.Members[0]
	if len(m.Simulation.Steps) != 10 || len(m.Analyses[0].Steps) != 10 {
		t.Fatalf("steps: sim %d ana %d, want 10 each", len(m.Simulation.Steps), len(m.Analyses[0].Steps))
	}
	// The calibrated C_f member is Idle Analyzer: the simulation never
	// waits (I^S ~ 0 beyond the first step), the analysis does.
	ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ss.CouplingScenario(0)
	if err != nil {
		t.Fatal(err)
	}
	if sc != core.IdleAnalyzer {
		t.Errorf("C_f coupling scenario = %v, want IdleAnalyzer (Eq. 4 holds at 8 analysis cores)", sc)
	}
	if !ss.SatisfiesEq4() {
		t.Error("C_f should satisfy Eq. 4 with the paper's core counts")
	}
}

func TestSimulatedSynchronousProtocol(t *testing.T) {
	// W_i happens-before R_i happens-before W_{i+1} (Section 3.1).
	tr := mustRunSim(t, placement.Cf(), 8, SimOptions{})
	m := tr.Members[0]
	const tol = 1e-9
	for i := range m.Simulation.Steps {
		var wEnd, wNextStart, rStart, rEnd float64
		for _, st := range m.Simulation.Steps[i].Stages {
			if st.Stage == trace.StageW {
				wEnd = st.End()
			}
		}
		for _, st := range m.Analyses[0].Steps[i].Stages {
			if st.Stage == trace.StageR {
				rStart = st.Start
				rEnd = st.End()
			}
		}
		if rStart < wEnd-tol {
			t.Fatalf("step %d: R starts at %v before W ends at %v", i, rStart, wEnd)
		}
		if i+1 < len(m.Simulation.Steps) {
			for _, st := range m.Simulation.Steps[i+1].Stages {
				if st.Stage == trace.StageW {
					wNextStart = st.Start
				}
			}
			if wNextStart < rEnd-tol {
				t.Fatalf("step %d: W_{i+1} starts at %v before R_i ends at %v", i, wNextStart, rEnd)
			}
		}
	}
}

func TestSimulatedDeterminism(t *testing.T) {
	t1 := mustRunSim(t, placement.C15(), 6, SimOptions{})
	t2 := mustRunSim(t, placement.C15(), 6, SimOptions{})
	if t1.Makespan() != t2.Makespan() {
		t.Errorf("nondeterministic makespans: %v vs %v", t1.Makespan(), t2.Makespan())
	}
	// With jitter the trace changes but stays deterministic per seed.
	j1 := mustRunSim(t, placement.C15(), 6, SimOptions{Jitter: 0.05, Seed: 42})
	j2 := mustRunSim(t, placement.C15(), 6, SimOptions{Jitter: 0.05, Seed: 42})
	j3 := mustRunSim(t, placement.C15(), 6, SimOptions{Jitter: 0.05, Seed: 43})
	if j1.Makespan() != j2.Makespan() {
		t.Errorf("same seed differs: %v vs %v", j1.Makespan(), j2.Makespan())
	}
	if j1.Makespan() == j3.Makespan() {
		t.Error("different seeds should perturb the makespan")
	}
	if j1.Makespan() == t1.Makespan() {
		t.Error("jitter should alter the makespan")
	}
}

func TestSimulatedMakespanShapes(t *testing.T) {
	// The headline behaviour of Figures 4-5: full coupling co-location
	// (C1.5) beats both analysis-sharing (C1.4) and the co-location-free
	// baseline (C_f); C1.4 is the worst of the two-member configs.
	makespan := func(cfg placement.Placement) float64 {
		return mustRunSim(t, cfg, PaperSteps, SimOptions{}).Makespan()
	}
	cf := makespan(placement.Cf())
	c14 := makespan(placement.C14())
	c15 := makespan(placement.C15())
	c12 := makespan(placement.C12())
	if c15 >= cf {
		t.Errorf("C1.5 (%v) should beat C_f (%v): DIMES locality", c15, cf)
	}
	if c15 >= c14 {
		t.Errorf("C1.5 (%v) should beat C1.4 (%v)", c15, c14)
	}
	if c15 >= c12 {
		t.Errorf("C1.5 (%v) should beat C1.2 (%v)", c15, c12)
	}
	if c14 <= cf {
		t.Errorf("C1.4 (%v) should be worse than C_f (%v): analysis contention", c14, cf)
	}
}

func TestSimulatedModelPrediction(t *testing.T) {
	// Equation 2 must predict the simulated makespan closely: the DES and
	// the analytic model describe the same steady state.
	tr := mustRunSim(t, placement.C15(), PaperSteps, SimOptions{})
	for _, m := range tr.Members {
		rep, err := core.ValidateModel(m, core.ExtractOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RelativeError > 0.05 {
			t.Errorf("member %d: model predicts %v, measured %v (err %.2f%%)",
				m.Index, rep.Predicted, rep.Measured, 100*rep.RelativeError)
		}
	}
}

func TestSteadyStates(t *testing.T) {
	spec := cluster.Cori(3)
	states, exact, err := SteadyStates(spec, placement.C15(), SpecForPlacement(placement.C15(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("C1.5 reads nothing remotely: its closed form is exact")
	}
	if len(states) != 2 {
		t.Fatalf("states = %d", len(states))
	}
	for i, ss := range states {
		if ss.S <= 0 || ss.W <= 0 || len(ss.Couplings) != 1 {
			t.Errorf("member %d: malformed steady state %+v", i, ss)
		}
		// The calibrated C1.5 member satisfies Eq. 4.
		if !ss.SatisfiesEq4() {
			t.Errorf("member %d: C1.5 should satisfy Eq. 4", i)
		}
	}
	// Co-located reads are cheaper: R(C1.5) < R(C_f).
	cf, _, err := SteadyStates(spec, placement.Cf(), SpecForPlacement(placement.Cf(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if states[0].Couplings[0].R >= cf[0].Couplings[0].R {
		t.Errorf("local read %v should beat remote read %v",
			states[0].Couplings[0].R, cf[0].Couplings[0].R)
	}
}

func TestSimulatedTiers(t *testing.T) {
	// On the co-located configuration in-memory staging (DIMES) beats the
	// burst buffer, which beats the parallel file system — the in situ
	// motivation of the paper's Section 1.
	dimes := mustRunSim(t, placement.Cc(), 8, SimOptions{Tier: TierDimes})
	bb := mustRunSim(t, placement.Cc(), 8, SimOptions{Tier: TierBurstBuffer})
	pfs := mustRunSim(t, placement.Cc(), 8, SimOptions{Tier: TierPFS})
	if !(dimes.Makespan() <= bb.Makespan() && bb.Makespan() <= pfs.Makespan()) {
		t.Errorf("tier ordering violated: dimes %v, bb %v, pfs %v",
			dimes.Makespan(), bb.Makespan(), pfs.Makespan())
	}
	spec := cluster.Cori(3)
	cfg := placement.Cf()
	if _, err := RunSimulated(spec, cfg, SpecForPlacement(cfg, 4), SimOptions{Tier: "tape"}); err == nil {
		t.Error("unknown tier should fail")
	}
}

func TestSimulatedValidation(t *testing.T) {
	spec := cluster.Cori(3)
	cfg := placement.Cf()
	es := SpecForPlacement(cfg, 4)

	if _, err := RunSimulated(spec, cfg, EnsembleSpec{}, SimOptions{}); err == nil {
		t.Error("empty spec should fail")
	}
	bad := es
	bad.Steps = 0
	if _, err := RunSimulated(spec, cfg, bad, SimOptions{}); err == nil {
		t.Error("zero steps should fail")
	}
	// Mismatched member count.
	wrong := SpecForPlacement(placement.C15(), 4)
	if _, err := RunSimulated(spec, cfg, wrong, SimOptions{}); err == nil {
		t.Error("member mismatch should fail")
	}
	// Placement outside the machine.
	if _, err := RunSimulated(cluster.Cori(1), placement.Cf(), es, SimOptions{}); err == nil {
		t.Error("placement beyond machine size should fail")
	}
}

func TestSimulatedFailureInjection(t *testing.T) {
	spec := cluster.Cori(3)
	cfg := placement.Cf()
	es := SpecForPlacement(cfg, 6)
	tr, err := RunSimulated(spec, cfg, es, SimOptions{
		Faults: &faults.Plan{Staging: []faults.StagingFault{{FailAtOp: 3}}},
	})
	if err == nil {
		t.Fatal("injected staging failure should surface")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Errorf("error should mention the injection: %v", err)
	}
	if tr == nil {
		t.Fatal("partial trace should be returned on failure")
	}
	// At least one component recorded the failure; siblings were
	// interrupted rather than deadlocking.
	found := false
	for _, c := range tr.Components() {
		if c.Err != "" {
			found = true
		}
	}
	if !found {
		t.Error("no component recorded an error")
	}
}

func TestSimulatedRemoteReadersSlowProducer(t *testing.T) {
	// C_f's producer serves one remote stream; C_c's serves none. The
	// producer's S stage must be longer in C_f (DIMES server
	// perturbation) while C_c pays co-location interference instead.
	cf := mustRunSim(t, placement.Cf(), 6, SimOptions{})
	spec := cluster.Cori(3)
	model := cluster.NewModel(spec)
	// Disable co-location interference to isolate the remote-reader
	// effect.
	bare := *model
	inter := *model.Inter
	inter.Dilation = map[cluster.Class]map[cluster.Class]float64{
		cluster.ClassCompute: {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
		cluster.ClassMemory:  {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
	}
	bare.Inter = &inter
	cfgC := placement.Cc()
	trC, err := RunSimulated(spec, cfgC, SpecForPlacement(cfgC, 6), SimOptions{Model: &bare})
	if err != nil {
		t.Fatal(err)
	}
	sCf := cf.Members[0].Simulation.Steps[2].StageDuration(trace.StageS)
	sCc := trC.Members[0].Simulation.Steps[2].StageDuration(trace.StageS)
	if sCf <= sCc {
		t.Errorf("remote reader should dilate the producer: S(C_f)=%v vs S(C_c, no interference)=%v", sCf, sCc)
	}
}

func TestSpecHelpers(t *testing.T) {
	es := PaperEnsemble("x", 2, 2, PaperSteps)
	if len(es.Members) != 2 || len(es.Members[0].Analyses) != 2 || es.Steps != 37 {
		t.Errorf("unexpected paper ensemble: %+v", es)
	}
	if err := es.Validate(placement.ConfigsTable4()[0]); err != nil {
		t.Errorf("paper ensemble should match Table 4 shapes: %v", err)
	}
	if err := es.Validate(placement.Cf()); err == nil {
		t.Error("shape mismatch should fail validation")
	}
}

func TestBufferedStagingExtension(t *testing.T) {
	// With jitter, buffering absorbs stage-time variance: depth 2 must
	// not be slower than the paper's no-buffering protocol, and in an
	// Idle Simulation configuration (C1.4) it should help measurably.
	cfg := placement.C14()
	base := mustRunSim(t, cfg, 12, SimOptions{Jitter: 0.05, Seed: 7})
	buffered := mustRunSim(t, cfg, 12, SimOptions{Jitter: 0.05, Seed: 7, StagingSlots: 2})
	if buffered.Makespan() > base.Makespan()+1e-9 {
		t.Errorf("buffered staging (%v) should not exceed unbuffered (%v)",
			buffered.Makespan(), base.Makespan())
	}
	// The protocol relaxes to W_{i+slots} after R_i: with 2 slots the
	// write of step i+2 must still wait for the read of step i.
	m := buffered.Members[0]
	const tol = 1e-9
	for i := 0; i+2 < len(m.Simulation.Steps); i++ {
		var rEnd, wStart float64
		for _, st := range m.Analyses[0].Steps[i].Stages {
			if st.Stage == trace.StageR {
				rEnd = st.End()
			}
		}
		for _, st := range m.Simulation.Steps[i+2].Stages {
			if st.Stage == trace.StageW {
				wStart = st.Start
			}
		}
		if wStart < rEnd-tol {
			t.Fatalf("step %d: W_{i+2} at %v before R_i end %v (buffer depth violated)", i, wStart, rEnd)
		}
	}
}

func TestDragonflyTopologyInRuntime(t *testing.T) {
	// Placing the coupled components in different dragonfly groups with a
	// starved global link must slow the remote read relative to the flat
	// fabric.
	cfg := placement.Cf() // sim on node 0, analysis on node 1
	flat := mustRunSim(t, cfg, 6, SimOptions{})
	df := mustRunSim(t, cfg, 6, SimOptions{Topology: &network.Dragonfly{
		GroupSize:       1, // nodes 0 and 1 in different groups
		GlobalBandwidth: 0.2e9,
		GlobalLatency:   1e-3,
	}})
	rFlat := flat.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageR)
	rDf := df.Members[0].Analyses[0].Steps[2].StageDuration(trace.StageR)
	if rDf <= rFlat {
		t.Errorf("cross-group read (%v) should exceed flat-fabric read (%v)", rDf, rFlat)
	}
}

func TestStagingMemoryAdmission(t *testing.T) {
	// A chunk too large for node DRAM must be rejected before execution.
	spec := cluster.Cori(2)
	spec.MemBytesPerNode = 1 << 30 // 1 GiB nodes
	cfg := placement.Cf()
	es := SpecForPlacement(cfg, 4)
	es.Members[0].Sim.BytesPerStep = 600 << 20 // 600 MiB chunk -> 1.2 GiB staging
	if _, err := RunSimulated(spec, cfg, es, SimOptions{}); err == nil {
		t.Fatal("oversized staging should be rejected by memory admission")
	}
	// The same ensemble on a burst buffer stages off-node: admitted.
	if _, err := RunSimulated(spec, cfg, es, SimOptions{Tier: TierBurstBuffer}); err != nil {
		t.Fatalf("burst buffer should not need producer memory: %v", err)
	}
}

func TestSocketFidelityInRuntime(t *testing.T) {
	// With dual-socket fidelity enabled, C_c's simulation and analysis
	// land on different sockets and interfere less: the makespan drops
	// relative to the node-level model.
	cfg := placement.Cc()
	es := SpecForPlacement(cfg, 8)
	flatSpec := cluster.Cori(1)
	flat, err := RunSimulated(flatSpec, cfg, es, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sockSpec := cluster.Cori(1)
	sockSpec.SocketsPerNode = 2
	sock, err := RunSimulated(sockSpec, cfg, es, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sock.Makespan() >= flat.Makespan() {
		t.Errorf("socket fidelity should reduce C_c interference: %v vs %v",
			sock.Makespan(), flat.Makespan())
	}
}
