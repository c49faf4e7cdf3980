package accounting

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/trace"
)

// syntheticTrace builds one member with known stage durations and core
// counts: a 2-core simulation running S=10, W=2, I^S=3 per step and a
// 1-core analysis running R=1, A=5, I^A=0.5 per step, for two steps.
func syntheticTrace() *trace.EnsembleTrace {
	mkSteps := func(stages []trace.Stage, durs []float64, origin float64) []trace.StepRecord {
		var steps []trace.StepRecord
		t := origin
		for i := 0; i < 2; i++ {
			var recs []trace.StageRecord
			for j, s := range stages {
				recs = append(recs, trace.StageRecord{Stage: s, Start: t, Duration: durs[j]})
				t += durs[j]
			}
			steps = append(steps, trace.StepRecord{Index: i, Stages: recs})
		}
		return steps
	}
	sim := &trace.ComponentTrace{
		Name: "m0.sim", Kind: trace.KindSimulation, Nodes: []int{0}, Cores: 2,
		Start: 0, End: 30,
		Steps: mkSteps([]trace.Stage{trace.StageS, trace.StageW, trace.StageIS}, []float64{10, 2, 3}, 0),
	}
	an := &trace.ComponentTrace{
		Name: "m0.a0", Kind: trace.KindAnalysis, Nodes: []int{1}, Cores: 1,
		Start: 0, End: 13,
		Steps: mkSteps([]trace.Stage{trace.StageR, trace.StageA, trace.StageIA}, []float64{1, 5, 0.5}, 0),
	}
	return &trace.EnsembleTrace{Members: []*trace.MemberTrace{{
		Index: 0, Simulation: sim, Analyses: []*trace.ComponentTrace{an},
	}}}
}

func TestFromTraceClassAttribution(t *testing.T) {
	l := FromTrace(syntheticTrace())
	// Two steps, durations scaled by component cores.
	want := JobLedger{
		Simulation: Split{Busy: 2 * 10 * 2, Idle: 2 * 3 * 2},
		Analysis:   Split{Busy: 2 * 5 * 1, Idle: 2 * 0.5 * 1},
		Staging:    Split{Busy: 2 * 2 * 2},
		Network:    Split{Busy: 2 * 1 * 1},
	}
	if l != want {
		t.Fatalf("ledger = %+v, want %+v", l, want)
	}
	if got, wantTotal := l.Total(), 40.0+12+10+1+8+2; got != wantTotal {
		t.Fatalf("Total() = %v, want %v", got, wantTotal)
	}
	if l.Busy()+l.Idle() != l.Total() {
		t.Fatalf("Busy+Idle = %v, want %v", l.Busy()+l.Idle(), l.Total())
	}
}

func TestFromTraceNilAndEmpty(t *testing.T) {
	if l := FromTrace(nil); l != (JobLedger{}) {
		t.Fatalf("nil trace ledger = %+v, want zero", l)
	}
	if l := FromTrace(&trace.EnsembleTrace{}); l != (JobLedger{}) {
		t.Fatalf("empty trace ledger = %+v, want zero", l)
	}
}

// ledgerByReplay is the oracle FromTrace is held to: the definition of a
// class's core-seconds as the area under its core-occupancy timeline. It
// replays the trace as an obs event stream and integrates one
// obs.Utilization per stage (each stage is one class and state), raised
// by a component's cores on StageBegin and lowered on StageEnd. obs.FromTrace's stable ordering puts
// a component's ResourceAcquire (carrying its core count) immediately
// before its ProcStart, and emits no acquire for a component on no node.
func ledgerByReplay(tr *trace.EnsembleTrace) JobLedger {
	var acc [6]obs.Utilization // indexed by trace.Stage
	cores := map[string]float64{}
	pending := 0.0
	for _, e := range obs.FromTrace(tr) {
		switch e.Kind {
		case obs.ResourceAcquire:
			pending = e.Value
		case obs.ProcStart:
			cores[e.Subject], pending = pending, 0
		case obs.StageBegin, obs.StageEnd:
			delta := cores[e.Subject]
			if e.Kind == obs.StageEnd {
				delta = -delta
			}
			for st := range acc {
				if trace.Stage(st).String() == e.Detail {
					acc[st].Add(e.T, delta)
				}
			}
		}
	}
	return JobLedger{
		Simulation: Split{Busy: acc[trace.StageS].Area(), Idle: acc[trace.StageIS].Area()},
		Analysis:   Split{Busy: acc[trace.StageA].Area(), Idle: acc[trace.StageIA].Area()},
		Staging:    Split{Busy: acc[trace.StageW].Area()},
		Network:    Split{Busy: acc[trace.StageR].Area()},
	}
}

// requireLedgersAgree compares class by class at 1e-12 relative.
func requireLedgersAgree(t *testing.T, name string, got, want JobLedger) {
	t.Helper()
	classes := Classes()
	g, w := got.Splits(), want.Splits()
	for i := range g {
		for _, v := range [2][2]float64{{g[i].Busy, w[i].Busy}, {g[i].Idle, w[i].Idle}} {
			if math.Abs(v[0]-v[1]) > 1e-12*math.Max(math.Abs(v[0]), math.Abs(v[1])) {
				t.Errorf("%s: %s = %+v, replay oracle %+v", name, classes[i], g[i], w[i])
			}
		}
	}
}

func simulated(t testing.TB, p placement.Placement, steps int, opts runtime.SimOptions) *trace.EnsembleTrace {
	t.Helper()
	tr, err := runtime.RunSimulated(cluster.Cori(3), p, runtime.SpecForPlacement(p, steps), opts)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return tr
}

// TestFromTraceMatchesReplayOracle holds the one-pass sum to the
// event-replay integral over the shapes the service accounts: every
// Table 2 placement, shallow and deep, with and without jitter.
func TestFromTraceMatchesReplayOracle(t *testing.T) {
	for _, p := range placement.ConfigsTable2() {
		for _, steps := range []int{8, 128} {
			for _, jitter := range []float64{0, 0.02} {
				for seed := int64(1); seed <= 2; seed++ {
					tr := simulated(t, p, steps, runtime.SimOptions{Jitter: jitter, Seed: seed})
					got := FromTrace(tr)
					if got.Total() <= 0 {
						t.Fatalf("%s: empty ledger", p.Name)
					}
					requireLedgersAgree(t, fmt.Sprintf("%s/steps=%d/jitter=%v/seed=%d", p.Name, steps, jitter, seed),
						got, ledgerByReplay(tr))
				}
			}
		}
	}
}

// TestFromTraceEdgeCasesMatchOracle covers the two shapes Table 2 never
// produces: a component on no node (it holds no cores, so it charges
// nothing) and a member cut short by the drop-member policy.
func TestFromTraceEdgeCasesMatchOracle(t *testing.T) {
	noNode := syntheticTrace()
	noNode.Members[0].Analyses[0].Nodes = nil
	got := FromTrace(noNode)
	if got.Analysis != (Split{}) || got.Network != (Split{}) || got.Simulation.Busy == 0 {
		t.Fatalf("no-node analysis charged: %+v", got)
	}
	requireLedgersAgree(t, "no-node", got, ledgerByReplay(noNode))

	c22, _ := placement.ByName("C2.2")
	dropped := simulated(t, c22, 37, runtime.SimOptions{
		Faults:     &faults.Plan{Name: "drop", Seed: 3, Crashes: []faults.NodeCrash{{Node: 1, At: 12}}},
		Resilience: runtime.Resilience{Mode: runtime.DropMember},
	})
	if len(dropped.DroppedMembers()) == 0 {
		t.Fatal("fault plan dropped no member")
	}
	requireLedgersAgree(t, "dropped-member", FromTrace(dropped), ledgerByReplay(dropped))
}

func TestFromTraceAllocatesNothing(t *testing.T) {
	tr := simulated(t, placement.ConfigsTable2()[0], 128, runtime.SimOptions{Jitter: 0.02, Seed: 1})
	var sink JobLedger
	if n := testing.AllocsPerRun(20, func() { sink = FromTrace(tr) }); n != 0 {
		t.Fatalf("FromTrace allocates %v times per run, want 0", n)
	}
	_ = sink
}

// TestSnapshotOrderIndependence records the same outcomes in two
// different completion orders and requires bit-identical snapshots —
// the property the per-campaign ledgers rely on for byte-identical JSON.
func TestSnapshotOrderIndependence(t *testing.T) {
	jl1 := FromTrace(syntheticTrace())
	jl2 := jl1
	jl2.Simulation.Busy *= 1.7 // a second, different job

	a := NewLedger()
	a.RecordSpent("h1", jl1)
	a.RecordSpent("h2", jl2)
	a.RecordSaved("h1", jl1, TierMemory)
	a.RecordSaved("h2", jl2, TierFleet)

	b := NewLedger()
	b.RecordSaved("h2", jl2, TierFleet)
	b.RecordSpent("h2", jl2)
	b.RecordSaved("h1", jl1, TierMemory)
	b.RecordSpent("h1", jl1)

	aj, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("snapshots differ:\n%s\n%s", aj, bj)
	}
}

func TestSnapshotCountsAndIdentity(t *testing.T) {
	jl := FromTrace(syntheticTrace())
	l := NewLedger()
	l.RecordSpent("h1", jl)
	l.RecordSaved("h1", jl, TierMemory)
	l.RecordSaved("h1", jl, TierMemory)
	l.RecordSaved("h1", jl, TierDisk)
	l.RecordSaved("h1", jl, TierFastPath) // overlapping credit, not cache-served
	l.RecordWall(2.5, 0.5)
	l.RecordRetryWaste(0.25)

	s := l.Snapshot()
	if s.Jobs != 1 || s.Executed != 1 || s.CacheServed != 3 {
		t.Fatalf("counts = jobs %d executed %d cacheServed %d, want 1/1/3", s.Jobs, s.Executed, s.CacheServed)
	}
	if s.Simulated.SpentTotal != jl.Total() {
		t.Fatalf("SpentTotal = %v, want %v", s.Simulated.SpentTotal, jl.Total())
	}
	wantSaved := 3 * jl.Total()
	if s.Simulated.SavedCacheTotal != wantSaved {
		t.Fatalf("SavedCacheTotal = %v, want %v", s.Simulated.SavedCacheTotal, wantSaved)
	}
	if s.Simulated.Saved.FastPath != jl.Total() {
		t.Fatalf("Saved.FastPath = %v, want %v", s.Simulated.Saved.FastPath, jl.Total())
	}
	// spent + cache-saved == cost of the 4 cache-relevant submissions uncached.
	if got, want := s.Simulated.SpentTotal+s.Simulated.SavedCacheTotal, 4*jl.Total(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spent+savedCache = %v, want %v", got, want)
	}
	if s.WallClock.WorkerSeconds != 2.5 || s.WallClock.QueueWaitSeconds != 0.5 || s.WallClock.RetryWastedSeconds != 0.25 {
		t.Fatalf("wall clock = %+v", s.WallClock)
	}
}

func TestMergeSumsSnapshots(t *testing.T) {
	jl := FromTrace(syntheticTrace())
	l1, l2 := NewLedger(), NewLedger()
	l1.RecordSpent("h1", jl)
	l1.RecordWall(1, 0.5)
	l2.RecordSpent("h2", jl)
	l2.RecordSaved("h1", jl, TierFleet)
	s1, s2 := l1.Snapshot(), l2.Snapshot()
	m := Merge([]Snapshot{s1, s2})
	if m.Jobs != 3 || m.Executed != 2 || m.CacheServed != 1 {
		t.Fatalf("merged counts = %d/%d/%d", m.Jobs, m.Executed, m.CacheServed)
	}
	if m.Simulated.SpentTotal != s1.Simulated.SpentTotal+s2.Simulated.SpentTotal {
		t.Fatalf("merged SpentTotal = %v", m.Simulated.SpentTotal)
	}
	if m.Simulated.Saved.Fleet != jl.Total() {
		t.Fatalf("merged Saved.Fleet = %v, want %v", m.Simulated.Saved.Fleet, jl.Total())
	}
	if m.WallClock.WorkerSeconds != 1 || m.WallClock.QueueWaitSeconds != 0.5 {
		t.Fatalf("merged wall = %+v", m.WallClock)
	}
}

func TestRecordSavedUnknownTierIgnored(t *testing.T) {
	l := NewLedger()
	l.RecordSaved("h1", JobLedger{}, "warp-drive")
	if s := l.Snapshot(); s.Jobs != 0 || s.CacheServed != 0 {
		t.Fatalf("unknown tier recorded: %+v", s)
	}
}
