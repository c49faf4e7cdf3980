package ensemblekit

import (
	"context"
	"encoding/json"
	"testing"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/telemetry/tracing"
)

// This file pins the bit-identity contract of the timeline kernel at the
// public API: with no option asking for it, it serves every fault-free
// run, and reproduces the engine's trace byte for byte with zero events
// dispatched. (internal/runtime/kernel_test.go holds the generated
// differential suite.)

func traceJSON(t testing.TB, tr *EnsembleTrace) string {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFastPathBitIdentical runs every Table 2 and Table 4 placement
// fault-free at the golden scale through the engine (selected by
// attaching a recorder) and through the default path. The kernel must
// serve every one, match the engine trace bit for bit and report zero DES
// events.
func TestFastPathBitIdentical(t *testing.T) {
	world := NewWorld()
	for _, p := range append(ConfigsTable2(), ConfigsTable4()...) {
		es := SpecForPlacement(p, goldenSteps)
		ref, info, err := RunSimulatedInfo(Cori(3), p, es, SimOptions{Recorder: obs.NewRecorder(nil)})
		if err != nil {
			t.Fatalf("%s: engine: %v", p.Name, err)
		}
		if info.FastPath || info.DESEvents == 0 {
			t.Errorf("%s: recorded run served by the kernel (%d DES events)", p.Name, info.DESEvents)
		}
		got, info, err := RunSimulatedInfo(Cori(3), p, es, SimOptions{World: world})
		if err != nil {
			t.Fatalf("%s: kernel: %v", p.Name, err)
		}
		if !info.FastPath || info.DESEvents != 0 {
			t.Errorf("%s: kernel=%v with %d DES events, want the kernel and 0", p.Name, info.FastPath, info.DESEvents)
		}
		if traceJSON(t, got) != traceJSON(t, ref) {
			t.Errorf("%s: kernel trace differs from engine trace", p.Name)
		}
	}
}

// TestFastPathBailsOnFaults pins the fallback: a faulted run is never
// served by the kernel.
func TestFastPathBailsOnFaults(t *testing.T) {
	p := ConfigByNameMust(t, "C1.4")
	es := SpecForPlacement(p, goldenSteps)
	opts := SimOptions{
		Faults: &FaultPlan{Name: "degraded", Seed: 7, Network: []NetworkWindow{
			{Start: 2, End: 30, Factor: 0.25},
		}},
	}
	got, info, err := RunSimulatedInfo(Cori(3), p, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.FastPath || info.DESEvents == 0 {
		t.Fatal("kernel served a faulted run")
	}
	clean, err := RunSimulated(Cori(3), p, es, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if traceJSON(t, got) == traceJSON(t, clean) {
		t.Error("the degradation window left no mark on the trace")
	}
}

// campaignFingerprint runs the Table 2 sweep on a service built from cfg
// and returns the campaign fingerprint plus the final service stats.
func campaignFingerprint(t *testing.T, cfg ServiceConfig) (string, ServiceStats) {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := RunCampaign(context.Background(), svc, Sweep{
		Placements: ConfigsTable2(),
		Seeds:      []int64{1, 2},
		Steps:      goldenSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp, svc.Stats()
}

// TestCampaignHintsFingerprintInvariant pins the service-level contract:
// how a job is executed and observed — pooled or serial, traced or not —
// never shows in the campaign fingerprint, and the kernel serves every
// job of the fault-free sweep either way.
func TestCampaignHintsFingerprintInvariant(t *testing.T) {
	base, st := campaignFingerprint(t, ServiceConfig{Workers: 4})
	if st.FastPathHits != st.CacheMisses || st.FastPathHits == 0 {
		t.Errorf("kernel served %d of %d executed jobs, want all", st.FastPathHits, st.CacheMisses)
	}
	traced, st := campaignFingerprint(t, ServiceConfig{Workers: 1, Tracer: tracing.NewTracer(tracing.NewStore(0, 0))})
	if traced != base {
		t.Errorf("traced serial fingerprint %s != base %s", traced, base)
	}
	if st.FastPathHits != st.CacheMisses || st.FastPathHits == 0 {
		t.Errorf("traced: kernel served %d of %d executed jobs, want all", st.FastPathHits, st.CacheMisses)
	}
}
