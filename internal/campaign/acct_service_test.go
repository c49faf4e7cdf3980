package campaign

import (
	"context"
	"encoding/json"
	"testing"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// runTaggedCampaign runs the two-member Table 2 sweep on a fresh service
// under the given config and returns the campaign's accounting snapshot.
func runTaggedCampaign(t *testing.T, cfg Config) accounting.Snapshot {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := RunCampaign(context.Background(), svc, Sweep{
		Name:       "acct",
		Placements: placement.ConfigsTable2TwoMember(),
		Steps:      4,
		Campaign:   "acct",
	}); err != nil {
		t.Fatal(err)
	}
	snap, ok := svc.CampaignAccounting("acct")
	if !ok {
		t.Fatal("campaign ledger missing after the run")
	}
	return snap
}

// TestCampaignLedgerByteIdentical runs the same campaign on two fresh
// services — different worker interleavings, same submissions — and
// requires byte-identical simulated sections. Wall-clock seconds are
// measured, not simulated, so they are excluded from the identity.
func TestCampaignLedgerByteIdentical(t *testing.T) {
	a := runTaggedCampaign(t, Config{Workers: 4})
	b := runTaggedCampaign(t, Config{Workers: 2})

	aj, err := json.Marshal(a.Simulated)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Simulated)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("simulated ledgers differ across runs:\n%s\n%s", aj, bj)
	}
	if a.Jobs != b.Jobs || a.Executed != b.Executed {
		t.Fatalf("counts differ: %d/%d vs %d/%d", a.Jobs, a.Executed, b.Jobs, b.Executed)
	}
	if a.Simulated.SpentTotal <= 0 {
		t.Fatal("campaign spent nothing; the ledger recorded no executions")
	}
}

// TestFastPathLedgerParity pins the accounting contract of the timeline
// kernel: it changes what the campaign *paid*, never what the ledger
// *says the jobs cost*. Spent is bit-identical whether the kernel or (a
// recorder being attached) the engine serves the jobs; the avoided engine
// runs surface as fastpath-tier credit on the kernel-served service only.
func TestFastPathLedgerParity(t *testing.T) {
	on := runTaggedCampaign(t, Config{Workers: 2})
	off := runTaggedCampaign(t, Config{Workers: 2,
		runFn: func(_ context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
			tr, info, err := runSpec(spec, obs.NewRecorder(nil), nil)
			if err != nil {
				return nil, info, err
			}
			res, err := derive(hash, spec.Placement, tr)
			return res, info, err
		}})

	if on.Simulated.SpentTotal != off.Simulated.SpentTotal {
		t.Fatalf("SpentTotal from the kernel %v != from the engine %v",
			on.Simulated.SpentTotal, off.Simulated.SpentTotal)
	}
	if on.Simulated.Spent != off.Simulated.Spent {
		t.Fatalf("spent ledger differs: %+v vs %+v", on.Simulated.Spent, off.Simulated.Spent)
	}
	if off.Simulated.Saved.FastPath != 0 {
		t.Fatalf("fastpath credit on engine-served jobs: %v", off.Simulated.Saved.FastPath)
	}
	if on.Simulated.Saved.FastPath <= 0 {
		t.Fatal("the kernel served no job; parity test exercised nothing")
	}
	// Overlapping credit: fastpath does not count as cache-served.
	if on.Simulated.SavedCacheTotal != off.Simulated.SavedCacheTotal {
		t.Fatalf("cache-saved changed with the serving path: %v vs %v",
			on.Simulated.SavedCacheTotal, off.Simulated.SavedCacheTotal)
	}
}

// TestCacheHitCreditsSavedTier submits the same spec twice: the second
// submission is a memory-tier hit whose avoided cost must equal the
// first execution's spent cost exactly.
func TestCacheHitCreditsSavedTier(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := jobFor(t, 1)
	for i := 0; i < 2; i++ {
		j, err := svc.SubmitWait(context.Background(), spec, SubmitOptions{Campaign: "c"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	snap, ok := svc.CampaignAccounting("c")
	if !ok {
		t.Fatal("campaign ledger missing")
	}
	if snap.Jobs != 1 || snap.Executed != 1 || snap.CacheServed != 1 {
		t.Fatalf("counts = %d jobs / %d executed / %d served, want 1/1/1",
			snap.Jobs, snap.Executed, snap.CacheServed)
	}
	if snap.Simulated.Saved.Memory != snap.Simulated.SpentTotal {
		t.Fatalf("memory-tier credit %v != spent %v",
			snap.Simulated.Saved.Memory, snap.Simulated.SpentTotal)
	}
	if snap.Simulated.SpentTotal <= 0 {
		t.Fatal("nothing spent; cache test exercised nothing")
	}
}

// TestStatsJSONShape pins the exact wire shape of GET /v1/stats — field
// order and names — including the per-tier cache hit split
// (cacheHits/diskHits/fleetHits). A marshal-layout change is an API
// break and must show up here.
func TestStatsJSONShape(t *testing.T) {
	b, err := json.Marshal(statsResponse{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"submitted":0,"completed":0,"failed":0,"cancelled":0,` +
		`"cacheHits":0,"diskHits":0,"fleetHits":0,"cacheMisses":0,` +
		`"dedups":0,"rejected":0,"retries":0,"quarantined":0,` +
		`"workerPanics":0,"cacheCorrupt":0,"journalReplayed":0,` +
		`"fastPathHits":0,` +
		`"queueDepth":0,"queueCapacity":0,"running":0,"workers":0,` +
		`"cacheEntries":0,"cacheBytes":0,"hitRate":0}`
	if string(b) != want {
		t.Fatalf("stats wire shape changed:\n got %s\nwant %s", b, want)
	}
}

// TestCampaignAccountingJSONShape pins the wire shape of
// GET /v1/campaigns/{id}/accounting at the top and simulated levels.
func TestCampaignAccountingJSONShape(t *testing.T) {
	b, err := json.Marshal(campaignAccounting{Campaign: "c"})
	if err != nil {
		t.Fatal(err)
	}
	zeroSplit := `{"busy":0,"idle":0}`
	zeroLedger := `{"simulation":` + zeroSplit + `,"analysis":` + zeroSplit +
		`,"staging":` + zeroSplit + `,"network":` + zeroSplit + `}`
	want := `{"campaign":"c","jobs":0,"executed":0,"cacheServed":0,` +
		`"simulated":{"spent":` + zeroLedger + `,"spentTotal":0,` +
		`"saved":{"memory":0,"disk":0,"fleet":0,"plancache":0,"fastpath":0},` +
		`"savedCacheTotal":0},` +
		`"wallClock":{"workerSeconds":0,"queueWaitSeconds":0,"retryWastedSeconds":0}}`
	if string(b) != want {
		t.Fatalf("accounting wire shape changed:\n got %s\nwant %s", b, want)
	}
}
