package ensemblekit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
)

// This file pins the determinism guarantee of the simulated backend: the
// engine and fabric optimizations must not move a single simulated
// timestamp. Every Table 2 and Table 4 placement (plus seeded-jitter and
// fault-plan variants covering the interrupt, timeout, restart, and
// degradation paths) is run with a recorder attached; the full obs event
// stream is serialized exactly (hex floats preserve every bit) and its
// SHA-256 compared to a pinned value recorded before the optimizations
// landed. A hash mismatch means the event stream changed — either a
// determinism regression or an intentional semantic change that must
// re-pin these values consciously (run with GOLDEN_PRINT=1 to list them).

// obsStreamHash serializes an obs event stream bit-exactly and hashes it.
func obsStreamHash(events []obs.Event) string {
	h := sha256.New()
	buf := make([]byte, 0, 160)
	for _, ev := range events {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, ev.T, 'x', -1, 64)
		buf = append(buf, '|')
		buf = strconv.AppendUint(buf, uint64(ev.Kind), 10)
		buf = append(buf, '|')
		buf = append(buf, ev.Subject...)
		buf = append(buf, '|')
		buf = append(buf, ev.Detail...)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(ev.Node), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(ev.Node2), 10)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, ev.Value, 'x', -1, 64)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSteps keeps the golden runs fast while still exercising the
// steady-state protocol (same reduced scale as the benchmark suite).
const goldenSteps = 8

// goldenObsHashes pins the SHA-256 of the obs event stream for every
// Table 2 and Table 4 placement at the golden scale, recorded on the
// pre-optimization engine (PR 4 baseline). These values must never change
// without a conscious re-pin.
var goldenObsHashes = map[string]string{
	"C_f":  "12dc3e4c93b0b8681a76aa2c2204ec571b42a96b786106445af6d1934214ba5c",
	"C_c":  "5d1eea9e2cc9090d3d9992b6fb12d58c772a5af7d90013263bd01de4c9802388",
	"C1.1": "8c26b3f9f3310bf8851e82294c88a092b9f20a641df639229fe654db38344041",
	"C1.2": "7470208d359ef87afc699dd7e615fda5a7011322be6a7ca6c77c39c30392fb48",
	"C1.3": "ad31c75f9ef2c1cfa0dcd1c4fe83df1f80a0f198b4beebbe4e45fd94d8309641",
	"C1.4": "c83065cfbff29a7f020223b498441ee41d4194e6c3e96cdbff6e6346a6d53997",
	"C1.5": "97ab1366df7fe68560ce9c9fc727242d56a51666a7738c31fbc8cd6290a92933",
	"C2.1": "e63d54f4f8635344d976b6fec329c35a6faa373e6c0ae7d09713ef8e7ff98cd0",
	"C2.2": "7f033d24c2019d788398dae5c7342f91bbf62b674981873ae4148b00046e670e",
	"C2.3": "c5f0ffef9e862e9e9ac19e4464b8b8c65f6c854a0d9aba7ee55ed98e3a9dccfc",
	"C2.4": "b5bcac654abf27ea9cfb675f20ad33149144dabda58157e12aa8b267965ae843",
	"C2.5": "2f2ed4172b4ad6dbc375951bd42aea6430fd5d5b7ac70b01abbf82b2fecac02c",
	"C2.6": "0d3a9e35cff75127df6611bc89aaca7a101dea7c4b19ae9229fed157e0a4ed69",
	"C2.7": "dcd5cb422bcb9c7b10365fc075f7e49fc6fca4864939457b194f398d1e82d7f3",
	"C2.8": "5c689b6e8126984f0a82ed32454b7e74035bf6075066a09094e59209765020f8",
}

// goldenFaultHashes pins variants that drive the engine's recovery paths:
// seeded jitter, staging retries with backoff, stage timeouts
// (sim.Timer guards), network degradation windows (fabric re-balance
// boundaries), node crashes with restarts, stragglers, and the
// drop-member policy (interrupt storms).
var goldenFaultHashes = map[string]string{
	"jitter":     "27e718acf16b0e066a3f42e7580a2963f6c6ba09a5582b72a042606aa6dbe3aa",
	"degraded":   "a9517002b068ef054a9480f8c38a5509dc72a1a6c00c858a04c33f6ffe1836fd",
	"resilience": "30e547b71ea7f061abf04b8a76b3ada028d2479d63c282b1451ed09cc770d8c6",
	"dropmember": "6b0c9df19a41285dc963031c1f9760ced806b571511dbada46aeea5fdc2177c4",
}

func goldenRun(t testing.TB, p Placement, opts SimOptions) string {
	t.Helper()
	rec := obs.NewRecorder(nil)
	opts.Recorder = rec
	es := SpecForPlacement(p, goldenSteps)
	if _, err := RunSimulated(Cori(3), p, es, opts); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return obsStreamHash(rec.Events())
}

func checkGolden(t *testing.T, name, got string, pins map[string]string) {
	t.Helper()
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("\t%q: %q,\n", name, got)
		return
	}
	want, ok := pins[name]
	if !ok {
		t.Fatalf("no pinned hash for %q (got %s); run with GOLDEN_PRINT=1 to list", name, got)
	}
	if got != want {
		t.Errorf("%s: obs stream hash = %s, want %s (event stream changed: determinism regression or unpinned semantic change)", name, got, want)
	}
}

// TestGoldenObsStreamTable2 pins the event stream of every Table 2
// placement on the simulated backend.
func TestGoldenObsStreamTable2(t *testing.T) {
	for _, p := range ConfigsTable2() {
		checkGolden(t, p.Name, goldenRun(t, p, SimOptions{}), goldenObsHashes)
	}
}

// TestGoldenObsStreamTable4 pins the event stream of every Table 4
// placement on the simulated backend.
func TestGoldenObsStreamTable4(t *testing.T) {
	for _, p := range ConfigsTable4() {
		checkGolden(t, p.Name, goldenRun(t, p, SimOptions{}), goldenObsHashes)
	}
}

// TestGoldenObsStreamFaultPaths pins event streams through the engine's
// recovery machinery: seeded jitter, fault plans (staging retries,
// degradation windows, crashes, stragglers), stage timeouts, and the
// drop-member interrupt path. These cover the cancellable-event,
// interrupt, and fabric re-balance fast paths that the plain Table runs
// do not reach.
func TestGoldenObsStreamFaultPaths(t *testing.T) {
	cases := []struct {
		name string
		p    Placement
		opts SimOptions
	}{
		{"jitter", ConfigC15(), SimOptions{Jitter: 0.05, Seed: 42}},
		{"degraded", ConfigByNameMust(t, "C1.4"), SimOptions{
			Faults: &FaultPlan{Name: "degraded", Seed: 7, Network: []NetworkWindow{
				{Start: 2, End: 30, Factor: 0.25},
				{Start: 10, End: 40, Factor: 0.5},
			}},
		}},
		{"resilience", ConfigByNameMust(t, "C1.4"), SimOptions{
			Faults: &FaultPlan{Name: "res", Seed: 11,
				Staging:    []StagingFault{{Rate: 0.05}},
				Stragglers: []StragglerFault{{Component: "m0.*", Start: 5, End: 60, Factor: 1.5}},
			},
			Resilience: Resilience{StagingRetries: 4, RetryBackoff: 0.2, StageTimeout: 45},
		}},
		{"dropmember", ConfigByNameMust(t, "C2.2"), SimOptions{
			Faults: &FaultPlan{Name: "drop", Seed: 3,
				Crashes: []NodeCrash{{Node: 1, At: 12}},
			},
			Resilience: Resilience{Mode: DropMember},
		}},
	}
	for _, c := range cases {
		checkGolden(t, c.name, goldenRun(t, c.p, c.opts), goldenFaultHashes)
	}
}

// ConfigByNameMust resolves a named paper placement or fails the test.
func ConfigByNameMust(t testing.TB, name string) Placement {
	t.Helper()
	p, ok := ConfigByName(name)
	if !ok {
		t.Fatalf("unknown placement %q", name)
	}
	return p
}

// TestCampaignSweepByteIdentical pins the campaign-service guarantee on
// the same seeds the benchmark suite uses: RunCampaign through the pooled
// worker path must produce traces byte-identical to serial execution of
// the same job specs, cold cache and warm cache alike.
func TestCampaignSweepByteIdentical(t *testing.T) {
	sweep := Sweep{
		Placements: ConfigsTable2(),
		Seeds:      []int64{1, 2, 3},
		Steps:      goldenSteps,
	}
	cands, err := sweep.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: trace bytes per job hash.
	serial := make(map[string][]byte)
	for _, c := range cands {
		for _, js := range c.Specs {
			hash, err := js.Hash()
			if err != nil {
				t.Fatal(err)
			}
			opts := js.Sim.Options()
			opts.Faults = js.Faults
			tr, err := RunSimulated(js.Cluster, js.Placement, js.Ensemble, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			serial[hash] = b
		}
	}
	svc, err := NewService(ServiceConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for pass, wantHits := range []bool{false, true} {
		res, err := RunCampaign(context.Background(), svc, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if wantHits && res.CacheHits != res.Jobs {
			t.Errorf("pass %d: cache hits = %d, want %d (warm re-run must be fully cached)", pass, res.CacheHits, res.Jobs)
		}
		seen := 0
		for _, cr := range res.Candidates {
			for i, jr := range cr.Results {
				want, ok := serial[jr.Hash]
				if !ok {
					t.Fatalf("pass %d: job %s not in serial reference", pass, jr.Hash)
				}
				j, ok := svc.Job(cr.JobIDs[i])
				if !ok {
					t.Fatalf("pass %d: job %s unknown", pass, cr.JobIDs[i])
				}
				tr, err := j.Trace()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(tr)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("pass %d: job %s: pooled trace differs from serial", pass, jr.Hash)
				}
				seen++
			}
		}
		if seen != len(serial) {
			t.Errorf("pass %d: campaign returned %d jobs, want %d", pass, seen, len(serial))
		}
	}
}

var _ = runtime.PaperSteps // keep the runtime import tied to the alias source
