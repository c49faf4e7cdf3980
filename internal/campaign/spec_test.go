package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// testJob builds a valid baseline spec (C1.5 on two Cori nodes).
func testJob(t *testing.T) JobSpec {
	t.Helper()
	p := placement.C15()
	es := runtime.SpecForPlacement(p, 4)
	js, err := NewJob(cluster.Cori(2), p, es, runtime.SimOptions{Seed: 1, Jitter: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Validate(); err != nil {
		t.Fatal(err)
	}
	return js
}

func hashOf(t *testing.T, js JobSpec) string {
	t.Helper()
	h, err := js.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashInvariantUnderNodeListRepresentation(t *testing.T) {
	base := testJob(t)
	want := hashOf(t, base)

	// Reorder and duplicate component node lists: same node set, same run.
	messy := base
	messy.Placement.Members = append([]placement.Member(nil), base.Placement.Members...)
	m := messy.Placement.Members[1]
	m.Simulation.Nodes = []int{1, 1, 1}
	m.Analyses = append([]placement.Component(nil), m.Analyses...)
	m.Analyses[0].Nodes = []int{1, 1}
	messy.Placement.Members[1] = m
	if got := hashOf(t, messy); got != want {
		t.Errorf("node-list order/duplication changed the hash: %s vs %s", got, want)
	}
}

func TestHashInvariantUnderJSONRoundTrip(t *testing.T) {
	specs := []JobSpec{testJob(t)}
	// Also round-trip a spec with a fault plan, the pointer-heavy case.
	withFaults := testJob(t)
	withFaults.Faults = &faults.Plan{
		Name: "flaky",
		Seed: 9,
		Staging: []faults.StagingFault{
			{Tier: runtime.TierDimes, Rate: 0.05},
		},
	}
	specs = append(specs, withFaults)

	for i, js := range specs {
		want := hashOf(t, js)
		b, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if got := hashOf(t, back); got != want {
			t.Errorf("spec %d: JSON round-trip changed the hash: %s vs %s", i, got, want)
		}
	}
}

func TestHashInvariantUnderEmptyVsNilFaultSlices(t *testing.T) {
	base := testJob(t)
	want := hashOf(t, base)

	// A present-but-empty plan is semantically no plan at all.
	withEmpty := base
	withEmpty.Faults = &faults.Plan{}
	if got := hashOf(t, withEmpty); got != want {
		t.Errorf("empty fault plan changed the hash: %s vs %s", got, want)
	}

	// Empty vs nil rule slices inside a non-empty plan.
	a := base
	a.Faults = &faults.Plan{Staging: []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.1}}}
	b := base
	b.Faults = &faults.Plan{
		Staging:    []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.1}},
		Network:    []faults.NetworkWindow{},
		Crashes:    []faults.NodeCrash{},
		Stragglers: []faults.Straggler{},
	}
	if hashOf(t, a) != hashOf(t, b) {
		t.Error("empty vs nil fault-rule slices changed the hash")
	}
}

func TestHashChangesForEverySemanticField(t *testing.T) {
	base := testJob(t)
	want := hashOf(t, base)

	mutations := map[string]func(*JobSpec){
		"placement": func(js *JobSpec) {
			p := placement.C11() // different node assignment, same workload shape
			js.Placement = p
			js.Ensemble = runtime.SpecForPlacement(p, 4)
			js.Cluster.Nodes = 3
		},
		"steps": func(js *JobSpec) {
			js.Ensemble = runtime.SpecForPlacement(placement.C15(), 8)
		},
		"seed":   func(js *JobSpec) { js.Sim.Seed = 2 },
		"jitter": func(js *JobSpec) { js.Sim.Jitter = 0.1 },
		"tier":   func(js *JobSpec) { js.Sim.Tier = runtime.TierBurstBuffer },
		"fault plan": func(js *JobSpec) {
			js.Faults = &faults.Plan{Staging: []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.2}}}
		},
		"fault seed": func(js *JobSpec) {
			js.Faults = &faults.Plan{Seed: 7, Staging: []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.2}}}
		},
		"resilience": func(js *JobSpec) {
			js.Sim.Resilience = runtime.Resilience{StagingRetries: 3, Mode: runtime.DropMember}
		},
		"cluster size":  func(js *JobSpec) { js.Cluster.Nodes = 5 },
		"staging slots": func(js *JobSpec) { js.Sim.StagingSlots = 4 },
	}
	for name, mutate := range mutations {
		js := base
		mutate(&js)
		if got := hashOf(t, js); got == want {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestHashIgnoresRecorderButRejectsModel(t *testing.T) {
	p := placement.C15()
	es := runtime.SpecForPlacement(p, 4)
	spec := cluster.Cori(2)

	plain, err := NewJob(spec, p, es, runtime.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := NewJob(spec, p, es, runtime.SimOptions{Seed: 1, Recorder: nil})
	if err != nil {
		t.Fatal(err)
	}
	if hashOf(t, plain) != hashOf(t, instrumented) {
		t.Error("recorder presence changed the hash")
	}

	_, err = NewJob(spec, p, es, runtime.SimOptions{Model: cluster.NewModel(spec)})
	if !errors.Is(err, ErrNotCacheable) {
		t.Errorf("model override: got %v, want ErrNotCacheable", err)
	}
}

func TestNewJobGrowsClusterToPlacement(t *testing.T) {
	p := placement.C15() // uses nodes 0 and 1
	es := runtime.SpecForPlacement(p, 4)
	js, err := NewJob(cluster.Cori(1), p, es, runtime.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if js.Cluster.Nodes != 2 {
		t.Errorf("cluster not grown: %d nodes, want 2", js.Cluster.Nodes)
	}
	if err := js.Validate(); err != nil {
		t.Errorf("grown spec should validate: %v", err)
	}
}

// withRealKey is spec's canonical JSON plus the "real" section a spec
// could carry while the service still ran the real backend.
func withRealKey(t testing.TB, spec JobSpec) []byte {
	t.Helper()
	b, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(b[:len(b)-1:len(b)-1], `,"real":{"steps":2,"stride":4}}`...)
}

func TestDecodeSpecIsStrict(t *testing.T) {
	spec := testJob(t)
	b, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if hashOf(t, got) != hashOf(t, spec) {
		t.Error("a canonical spec decodes to another hash")
	}
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"unknown field": {withRealKey(t, spec), `unknown field "real"`},
		"trailing data": {append(b, `{}`...), "data after the spec"},
		"trailing ]":    {append(b, `]`...), "data after the spec"},
		"not a spec":    {[]byte(`[1]`), "undecodable spec"},
		"invalid spec":  {[]byte(`{"cluster":{"Nodes":0}}`), "Nodes must be positive"},
	} {
		if _, err := decodeSpec(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", name, err, tc.want)
		}
	}
}

// A peer's forward or drain handoff carrying a spec with "real" is
// refused with a reason that names the field, instead of losing the key
// and running (or failing as) some other job.
func TestForwardedAndDrainedRealSpecsAreRefused(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	b := withRealKey(t, pinnedSimSpec(t))
	if _, err := svc.ExecuteForwardedJSON(context.Background(), b, "real"); err == nil ||
		!IsPermanent(err) || !strings.Contains(err.Error(), `"real"`) {
		t.Errorf("forwarded real spec: err %v, want a permanent refusal naming \"real\"", err)
	}
	if err := svc.SubmitJSON(b, "real", 0); err == nil || !strings.Contains(err.Error(), `"real"`) {
		t.Errorf("drained real spec: err %v, want a refusal naming \"real\"", err)
	}
	if n := svc.Stats().Submitted; n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}
