package runtime

import (
	"bytes"
	"strings"
	"testing"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
)

// TestSimulatedRecorderBitIdentical is the acceptance check for the
// instrumentation layer: attaching a recorder must not change simulation
// results, because the recorder only appends observations and never alters
// event scheduling.
func TestSimulatedRecorderBitIdentical(t *testing.T) {
	plain := mustRunSim(t, placement.C15(), 6, SimOptions{})
	rec := obs.NewRecorder(nil)
	observed := mustRunSim(t, placement.C15(), 6, SimOptions{Recorder: rec})

	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := observed.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace differs with recorder enabled: instrumentation perturbed the simulation")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder attached but no events emitted")
	}
	// Jittered runs must also be unperturbed (same RNG consumption).
	j1 := mustRunSim(t, placement.C15(), 6, SimOptions{Jitter: 0.05, Seed: 42})
	j2 := mustRunSim(t, placement.C15(), 6, SimOptions{Jitter: 0.05, Seed: 42, Recorder: obs.NewRecorder(nil)})
	if j1.Makespan() != j2.Makespan() {
		t.Fatalf("jittered makespan differs with recorder: %v vs %v", j1.Makespan(), j2.Makespan())
	}
}

// TestSimulatedRecorderEventStream checks that the live event stream is
// structurally sound: the Chrome export validates, node occupancy covers
// every placed node, and DTL traffic matches the protocol's operation count.
func TestSimulatedRecorderEventStream(t *testing.T) {
	const steps = 6
	rec := obs.NewRecorder(nil)
	p := placement.C15()
	tr := mustRunSim(t, p, steps, SimOptions{Recorder: rec})

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("live-recorded chrome trace invalid: %v", err)
	}

	m := obs.Analyze(rec.Events())
	// Every node hosting a component must have an occupancy timeline with a
	// positive peak.
	want := map[int]bool{}
	for _, mem := range p.Members {
		want[mem.Simulation.NodeSet()[0]] = true
		for _, a := range mem.Analyses {
			want[a.NodeSet()[0]] = true
		}
	}
	for n := range want {
		nu, ok := m.Nodes[n]
		if !ok {
			t.Fatalf("node %d hosts components but has no occupancy timeline", n)
		}
		if nu.Cores.Peak() <= 0 {
			t.Fatalf("node %d occupancy peak = %v, want > 0", n, nu.Cores.Peak())
		}
	}
	// The synchronous protocol does one put per simulation step and one get
	// per (analysis, step).
	var members, analyses int
	for _, mem := range tr.Members {
		members++
		analyses += len(mem.Analyses)
	}
	var puts, gets int
	for _, d := range m.DTLList() {
		switch d.Op {
		case "put":
			puts += d.Count
		case "get":
			gets += d.Count
		}
	}
	if puts != members*steps {
		t.Errorf("puts = %d, want %d (members x steps)", puts, members*steps)
	}
	if gets != analyses*steps {
		t.Errorf("gets = %d, want %d (analyses x steps)", gets, analyses*steps)
	}
	// Stage events cover the full six-stage taxonomy.
	seen := map[string]bool{}
	for _, st := range m.StageList() {
		seen[st.Stage] = true
	}
	for _, stage := range []string{"S", "I^S", "W", "R", "A", "I^A"} {
		if !seen[stage] {
			t.Errorf("stage %s missing from event stream (saw %v)", stage, keys(seen))
		}
	}
	// Labeled protocol stores produced queue timelines.
	var hasTokens, hasAnnounce bool
	for _, q := range m.QueueList() {
		if strings.Contains(q, "writeTokens") {
			hasTokens = true
		}
		if strings.Contains(q, "announce") {
			hasAnnounce = true
		}
	}
	if !hasTokens || !hasAnnounce {
		t.Errorf("protocol store timelines missing: tokens=%v announce=%v (queues: %v)",
			hasTokens, hasAnnounce, m.QueueList())
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
