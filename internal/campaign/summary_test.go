package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	gort "runtime"
	"testing"

	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/placement"
)

// table2Specs returns one spec per Table 2 configuration: shallow (8
// steps, no jitter) or deep (128 steps with jitter, the deep-cold shape).
func table2Specs(t testing.TB, deep bool) []JobSpec {
	t.Helper()
	sw := Sweep{Placements: placement.ConfigsTable2(), Steps: 8}
	if deep {
		sw.Steps, sw.Sim.Jitter = 128, 0.02
	}
	cands, err := sw.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, len(cands))
	for i, c := range cands {
		specs[i] = c.Specs[0]
	}
	return specs
}

// summaryFor runs spec the way a worker does and returns what it caches.
func summaryFor(t testing.TB, spec JobSpec) *Result {
	t.Helper()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := executeSpec(context.Background(), nil, hash, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("a simulated summary kept its trace")
	}
	return res
}

// cachedHeapPerEntry admits n copies of res under distinct hashes into a
// memory tier and returns the heap one entry holds: the result, its
// hash, its slices, and the cache's own bookkeeping.
func cachedHeapPerEntry(res *Result) int64 {
	const n = 4096
	c, _ := newResultCache(1<<40, "")
	var before, after gort.MemStats
	gort.GC()
	gort.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r := *res
		r.Hash = fmt.Sprintf("%064x", i)
		r.Efficiencies = append(make([]float64, 0, cap(res.Efficiencies)), res.Efficiencies...)
		c.admit(r.Hash, &r)
	}
	gort.GC()
	gort.ReadMemStats(&after)
	gort.KeepAlive(c)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
}

// TestCachedSummaryHeap: a memory-tier entry, LRU bookkeeping included,
// holds at most 512 B of heap for shallow and deep Table 2 jobs alike —
// the summary, not the trace, is what the cache keeps.
func TestCachedSummaryHeap(t *testing.T) {
	for _, deep := range []bool{false, true} {
		for _, spec := range table2Specs(t, deep) {
			heap := cachedHeapPerEntry(summaryFor(t, spec))
			t.Logf("%s deep=%v: %d B per cached entry", spec.Placement.Name, deep, heap)
			if heap > 512 {
				t.Errorf("%s deep=%v: a cached entry holds %d B, want ≤ 512", spec.Placement.Name, deep, heap)
			}
		}
	}
}

// TestEstimateResultSizeTracksHeap: the memory tier's budget is billed
// in heap bytes, so -cache-bytes bounds what the cache really holds.
func TestEstimateResultSizeTracksHeap(t *testing.T) {
	for _, deep := range []bool{false, true} {
		for _, spec := range table2Specs(t, deep) {
			res := summaryFor(t, spec)
			heap, est := cachedHeapPerEntry(res), estimateResultSize(res)
			if d := float64(est-heap) / float64(heap); d < -0.25 || d > 0.25 {
				t.Errorf("%s deep=%v: estimate %d B, heap %d B per entry (%+.0f%%), want within ±25%%",
					spec.Placement.Name, deep, est, heap, 100*d)
			}
		}
	}
}

// TestPoolPayloadsAreSummaries: the bodies a pool hop carries — a
// forwarded execution's response and a fleet-cache hit — are the summary,
// at most 1 KiB for shallow and deep Table 2 jobs, and decode to the
// result the owner cached.
func TestPoolPayloadsAreSummaries(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	ts := serveTest(t, mux)
	p, err := pool.New(pool.Config{SelfID: "n1", Advertise: ts.URL, Local: svc, Permanent: IsPermanent})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	mux.Handle("/", p.Handler())
	body := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s %v", resp.StatusCode, b, err)
		}
		return b
	}
	for _, deep := range []bool{false, true} {
		for _, spec := range table2Specs(t, deep) {
			hash, err := spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			specJSON, err := spec.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			req, err := json.Marshal(map[string]any{"hash": hash, "spec": json.RawMessage(specJSON)})
			if err != nil {
				t.Fatal(err)
			}
			forwarded := body(http.Post(ts.URL+"/v1/pool/execute", "application/json", bytes.NewReader(req)))
			fleet := body(http.Get(ts.URL + "/v1/pool/cache/" + hash))
			for name, b := range map[string][]byte{"execute": forwarded, "cache": fleet} {
				if len(b) > 1024 {
					t.Errorf("%s deep=%v: /v1/pool/%s body is %d B, want ≤ 1 KiB", spec.Placement.Name, deep, name, len(b))
				}
				res, err := decodeResult(b)
				if err != nil || res.Hash != hash || res.Trace != nil {
					t.Errorf("%s deep=%v: /v1/pool/%s body decodes to %+v, %v", spec.Placement.Name, deep, name, res, err)
				}
			}
			if !bytes.Equal(forwarded, fleet) {
				t.Errorf("%s deep=%v: the fleet cache serves other bytes than the execution returned", spec.Placement.Name, deep)
			}
		}
	}
}

// TestDecodeResultRejectsOlderGeneration: a payload that carries the
// trace but no ledger is the older generation — a miss, never a
// zero-ledger hit — while a summary round-trips byte for byte.
func TestDecodeResultRejectsOlderGeneration(t *testing.T) {
	res, err := Execute(table2Specs(t, false)[0])
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(map[string]any{"hash": res.Hash, "trace": res.Trace,
		"efficiencies": res.Efficiencies, "objective": res.Objective, "makespan": res.Makespan})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeResult(old); err == nil {
		t.Fatalf("older-generation payload decoded: %+v", got)
	}
	res.Trace = nil
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(got)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("summary does not round-trip:\n%s\n%s", b, again)
	}
}

// oldPeer is a fabric whose every peer answers with older-generation
// payloads: the trace and no ledger.
type oldPeer struct{ payload []byte }

func (f oldPeer) NodeID() string              { return "self" }
func (f oldPeer) Owner(string) (string, bool) { return "old", false }
func (f oldPeer) Lookup(context.Context, string, string) ([]byte, bool, error) {
	return f.payload, true, nil
}
func (f oldPeer) Execute(context.Context, string, string, []byte, string) ([]byte, error) {
	return f.payload, nil
}
func (f oldPeer) Handoff(context.Context, string, []byte, string, int) (string, error) {
	return "", context.Canceled
}

// TestOlderGenerationPeerPayloadRunsLocally: a peer's fleet-cache hit and
// forwarded result without a ledger are both misses — the job executes
// on this node and is charged its real ledger, never a zero one.
func TestOlderGenerationPeerPayloadRunsLocally(t *testing.T) {
	spec := table2Specs(t, false)[0]
	res, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(map[string]any{"hash": res.Hash, "trace": res.Trace,
		"efficiencies": res.Efficiencies, "objective": res.Objective, "makespan": res.Makespan})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.SetFabric(oldPeer{old})
	j, err := svc.Submit(context.Background(), spec, SubmitOptions{Campaign: "c"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Node() != "self" || got.Ledger != res.Ledger || got.Ledger.Total() == 0 {
		t.Errorf("ran on %q with ledger %+v, want self with %+v", j.Node(), got.Ledger, res.Ledger)
	}
	if acct, _ := svc.CampaignAccounting("c"); acct.Simulated.SpentTotal != res.Ledger.Total() {
		t.Errorf("campaign spent %v, want %v", acct.Simulated.SpentTotal, res.Ledger.Total())
	}
}
