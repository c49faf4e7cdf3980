package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/telemetry"
)

// This file is the in-process chaos suite for the durability layer: a
// service is interrupted mid-campaign (its unfinished jobs still pending
// in the write-ahead log), a second service is opened on the same state
// directory, and the resumed work must complete with results identical
// to a run that was never interrupted. The subprocess variant — a real
// SIGKILL against a live ensembled server — is TestChaos in
// cmd/ensembled.

// chaosSlowPlan is the engine-class half of the chaos sweep: a seeded
// straggler plan, which the timeline kernel declines. The sweep's other
// half is fault-free and kernel-served, so it exercises both routes a
// pool gives a job. chaosRequest is the same sweep as a POST body.
const (
	chaosSlowPlan = `{"name":"slow","seed":7,"stragglers":[{"component":"m0.sim","factor":2}]}`
	chaosRequest  = `{"name":"chaos","configs":["table2"],"steps":8,"faultPlans":[null,` + chaosSlowPlan + `]}`
)

// kernelSweep is Table 2 at 8 steps: every job kernel-served.
func kernelSweep() Sweep {
	return Sweep{Name: "chaos", Placements: placement.ConfigsTable2(), Steps: 8}
}

// chaosSweep is kernelSweep plus the same points under chaosSlowPlan.
func chaosSweep() Sweep {
	var slow faults.Plan
	if err := json.Unmarshal([]byte(chaosSlowPlan), &slow); err != nil {
		panic(err)
	}
	sw := kernelSweep()
	sw.FaultPlans = []*faults.Plan{nil, &slow}
	return sw
}

// chaosFingerprint runs the chaos sweep uninterrupted on a throwaway
// service and returns its fingerprint and its uncached cost.
func chaosFingerprint(t *testing.T) (string, float64) {
	t.Helper()
	return sweepFingerprint(t, chaosSweep())
}

// sweepFingerprint runs sw uninterrupted on a throwaway service and
// returns its fingerprint and its uncached cost: the simulated
// core-seconds its ledger charges.
func sweepFingerprint(t *testing.T, sw Sweep) (string, float64) {
	t.Helper()
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sw.Campaign = "ref"
	res, err := RunCampaign(context.Background(), svc, sw)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := svc.CampaignAccounting("ref")
	return fp, acct.Simulated.SpentTotal + acct.Simulated.SavedCacheTotal
}

func TestServiceResumesJournaledJobsAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.wal")
	cacheDir := filepath.Join(dir, "cache")

	// First life: one worker, and only the seed-1 job is allowed to
	// finish — the others park until shutdown cancels them.
	svc1, err := NewService(Config{
		Workers:     1,
		JournalPath: journalPath,
		CacheDir:    cacheDir,
		runFn: plainRun(func(ctx context.Context, spec JobSpec) (*Result, error) {
			if spec.Sim.Seed != 1 {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{jobFor(t, 1), jobFor(t, 2), jobFor(t, 3)}
	j1, err := svc1.Submit(context.Background(), specs[0], SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs[1:] {
		if _, err := svc1.Submit(context.Background(), spec, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	svc1.Close() // the two unfinished jobs stay pending in the journal

	// Second life: a plain service on the same state dir must replay the
	// two unfinished jobs and execute them without being asked.
	svc2, err := NewService(Config{Workers: 2, JournalPath: journalPath, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().JournalReplayed; got != 2 {
		t.Fatalf("replayed %d jobs, want 2", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc2.Stats().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs never completed: %+v", svc2.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Every spec is now answered from the cache: seed 1 from the first
	// life's disk entry, seeds 2 and 3 from the replayed executions.
	for i, spec := range specs {
		j, err := svc2.Submit(context.Background(), spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !j.CacheHit {
			t.Errorf("spec %d not cached after resume", i)
		}
	}

	// The terminal records drained the journal: nothing is pending, so a
	// third life would replay nothing.
	if st := svc2.Journal().Stats(); st.PendingJobs != 0 {
		t.Errorf("journal still holds %d pending jobs", st.PendingJobs)
	}
}

func TestCampaignResumeMatchesUninterruptedRun(t *testing.T) {
	refFP, _ := chaosFingerprint(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.wal")
	cacheDir := filepath.Join(dir, "cache")

	// First life: accept the campaign over HTTP, let exactly two jobs
	// finish, then shut down with the rest queued or parked.
	var ran atomic.Int64
	svc1, err := NewService(Config{
		Workers:     1,
		JournalPath: journalPath,
		CacheDir:    cacheDir,
		runFn: plainRun(func(ctx context.Context, spec JobSpec) (*Result, error) {
			if ran.Add(1) > 2 {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := serveTest(t, NewServer(svc1).Handler())
	st := postCampaign(t, ts1, chaosRequest)
	if st.ID != "c-1" {
		t.Fatalf("campaign id %q, want c-1", st.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := pollCampaignOnce(t, ts1, st.ID)
		if resp.Done >= 2 && resp.Done < resp.Total {
			break
		}
		if resp.Status != "running" || time.Now().After(deadline) {
			t.Fatalf("never caught the campaign mid-flight: %+v", resp)
		}
		time.Sleep(time.Millisecond)
	}
	ts1.Close()
	svc1.Close() // interrupt: no campaign-done record is written

	// Second life: Resume must find the interrupted campaign in the
	// journal, relaunch it under its original ID, and finish it with a
	// result indistinguishable from the uninterrupted run.
	svc2, err := NewService(Config{Workers: 2, JournalPath: journalPath, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().JournalReplayed; got == 0 {
		t.Fatal("restart replayed no jobs from the journal")
	}
	srv2 := NewServer(svc2)
	if n := srv2.Resume(); n != 1 {
		t.Fatalf("Resume relaunched %d campaigns, want 1", n)
	}
	ts2 := serveTest(t, srv2.Handler())
	final := pollCampaign(t, ts2, "c-1")
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("resumed campaign: %+v", final)
	}
	gotFP, err := final.Result.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != refFP {
		t.Errorf("resumed campaign fingerprint %s != uninterrupted %s", gotFP, refFP)
	}

	// A fresh campaign after the resumed one must not collide with the
	// preserved ID sequence.
	st2 := postCampaign(t, ts2, `{"configs":["C1.5"],"steps":4}`)
	if st2.ID == "c-1" {
		t.Errorf("new campaign reused the resumed campaign's ID")
	}
}

// pollCampaignOnce reads a campaign's status once (pollCampaign loops
// until terminal, which would wait out the whole run).
func pollCampaignOnce(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJournaledCampaignMatchesUnjournaled(t *testing.T) {
	refFP, _ := chaosFingerprint(t)
	dir := t.TempDir()
	svc, err := NewService(Config{
		Workers:     2,
		JournalPath: filepath.Join(dir, "journal.wal"),
		CacheDir:    filepath.Join(dir, "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := RunCampaign(context.Background(), svc, chaosSweep())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != refFP {
		t.Errorf("journaled campaign fingerprint %s != unjournaled %s", fp, refFP)
	}
}

// realSpecJournal was written by a build whose JobSpec still had the
// "real" section: two pending jobs, a real-backend spec (realSpecHash)
// and pinnedSimSpec. A journal is spec bytes another process wrote.
const (
	realSpecJournal = "testdata/real_spec_journal.wal"
	realSpecHash    = "9b3e9097c411996022ec5d7d905ca44106ba62bb8cdaa68cef19f8e620b060d5"
)

// On replay the real-spec job fails with a "replay:" reason that names
// the field, and the simulated job runs to done.
func TestReplayFailsRealSpecJob(t *testing.T) {
	b, err := os.ReadFile(realSpecJournal)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	svc, err := NewService(Config{Workers: 1, JournalPath: path,
		Logger: telemetry.NewLogger(&logs, telemetry.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().JournalReplayed; got != 1 {
		t.Fatalf("replayed %d jobs, want only the simulated one", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Completed < 1 || svc.Journal().Stats().PendingJobs > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replay left work pending: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	j, err := svc.Submit(context.Background(), pinnedSimSpec(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit {
		t.Error("the replayed simulated job did not finish")
	}
	svc.Close()

	var failed bool
	for _, line := range strings.Split(logs.String(), "\n") {
		var rec struct{ Msg, Hash, Reason string }
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Hash == realSpecHash {
			failed = rec.Msg == "journal: dropping unreplayable job" &&
				strings.HasPrefix(rec.Reason, "replay: ") && strings.Contains(rec.Reason, `"real"`)
		}
	}
	if !failed {
		t.Errorf("the real-spec job did not fail with a replay reason naming \"real\":\n%s", logs.String())
	}
}

// overBoundJournal holds one pending job over maxJobWork: the spec of the
// request {"configs":["C1.5"],"steps":100000000}, which admission refuses,
// written as a journal record so replay is the only gate it meets.
const (
	overBoundJournal = "testdata/over_bound_journal.wal"
	overBoundHash    = "ff590d5db8a280f87da79b48cca915e120f1ed775081becd27e0cf1ee3ac927e"
)

// On replay the over-bound job fails with a "replay:" reason that names
// the bound, and is never executed: the service then runs a campaign to
// completion.
func TestReplayFailsOverBoundJob(t *testing.T) {
	b, err := os.ReadFile(overBoundJournal)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	svc, err := NewService(Config{Workers: 1, JournalPath: path,
		Logger: telemetry.NewLogger(&logs, telemetry.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().JournalReplayed; got != 0 {
		t.Fatalf("replayed %d jobs, want none", got)
	}
	if n := svc.Journal().Stats().PendingJobs; n != 0 {
		t.Fatalf("%d jobs still pending after replay", n)
	}
	res, err := RunCampaign(context.Background(), svc, Sweep{
		Placements: []placement.Placement{placement.C15()}, Steps: 4, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 || res.Failed != 0 || len(res.Ranking) != 1 {
		t.Fatalf("campaign after replay: %d jobs, %d failed, %d ranked", res.Jobs, res.Failed, len(res.Ranking))
	}
	svc.Close()

	var failed bool
	for _, line := range strings.Split(logs.String(), "\n") {
		var rec struct{ Msg, Hash, Reason string }
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Hash == overBoundHash {
			failed = rec.Msg == "journal: dropping unreplayable job" &&
				strings.HasPrefix(rec.Reason, "replay: ") &&
				strings.Contains(rec.Reason, fmt.Sprintf("above the %d bound", maxJobWork))
		}
	}
	if !failed {
		t.Errorf("the over-bound job did not fail with a replay reason naming the bound:\n%s", logs.String())
	}
	_, st, err := journal.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 {
		t.Errorf("the journal still holds %d pending jobs", len(st.Jobs))
	}
}
