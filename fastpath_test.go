package ensemblekit

import (
	"context"
	"encoding/json"
	"testing"
)

// This file pins the bit-identity contract of the closed-form
// steady-state fast path: it must reproduce the DES trace byte-for-byte
// with zero events dispatched.

func traceJSON(t testing.TB, tr *EnsembleTrace) string {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFastPathBitIdentical runs every Table 2 and Table 4 placement
// fault-free at the golden scale through both the DES and the fast path.
// Every config the fast path serves must match the DES trace bit for bit
// and report zero DES events.
func TestFastPathBitIdentical(t *testing.T) {
	world := NewWorld()
	configs := append(ConfigsTable2(), ConfigsTable4()...)
	hits := 0
	for _, p := range configs {
		es := SpecForPlacement(p, goldenSteps)
		ref, err := RunSimulated(Cori(3), p, es, SimOptions{})
		if err != nil {
			t.Fatalf("%s: DES: %v", p.Name, err)
		}
		got, info, err := RunSimulatedInfo(Cori(3), p, es, SimOptions{FastPath: true, World: world})
		if err != nil {
			t.Fatalf("%s: fast path: %v", p.Name, err)
		}
		if traceJSON(t, got) != traceJSON(t, ref) {
			t.Errorf("%s: fast-path trace differs from DES trace", p.Name)
		}
		if info.FastPath {
			hits++
			if info.DESEvents != 0 {
				t.Errorf("%s: fast path dispatched %d DES events, want 0", p.Name, info.DESEvents)
			}
		}
	}
	if hits == 0 {
		t.Fatalf("fast path served none of the %d fault-free configs", len(configs))
	}
	t.Logf("fast path served %d/%d configs", hits, len(configs))
}

// TestFastPathBailsOnFaults pins the fallback: a faulted run must never be
// served by the closed form even when the hint is set.
func TestFastPathBailsOnFaults(t *testing.T) {
	p := ConfigByNameMust(t, "C1.4")
	es := SpecForPlacement(p, goldenSteps)
	opts := SimOptions{
		FastPath: true,
		Faults: &FaultPlan{Name: "degraded", Seed: 7, Network: []NetworkWindow{
			{Start: 2, End: 30, Factor: 0.25},
		}},
	}
	ref, err := RunSimulated(Cori(3), p, es, SimOptions{Faults: opts.Faults})
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := RunSimulatedInfo(Cori(3), p, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.FastPath {
		t.Fatal("fast path served a faulted run")
	}
	if traceJSON(t, got) != traceJSON(t, ref) {
		t.Error("faulted run with fast-path hint differs from plain DES run")
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
// the fast path and the verified fast path are pure execution hints — the
// campaign fingerprint is identical to the default configuration's, while
// the fast-path counters prove the hints actually took effect.
func TestCampaignHintsFingerprintInvariant(t *testing.T) {
	base, _ := campaignFingerprint(t, ServiceConfig{Workers: 4})

	fp, st := campaignFingerprint(t, ServiceConfig{Workers: 4, FastPath: true})
	if fp != base {
		t.Errorf("fast-path fingerprint %s != base %s", fp, base)
	}
	if st.FastPathHits == 0 {
		t.Error("fast-path service recorded no hits over the fault-free Table 2 sweep")
	}

	vp, st := campaignFingerprint(t, ServiceConfig{Workers: 4, VerifyFastPath: true})
	if vp != base {
		t.Errorf("verified fast-path fingerprint %s != base %s", vp, base)
	}
	if st.FastPathHits == 0 {
		t.Error("verify-fastpath service recorded no hits")
	}
	if st.FastPathVerified != st.FastPathHits {
		t.Errorf("verified %d of %d fast-path hits, want all", st.FastPathVerified, st.FastPathHits)
	}
}
