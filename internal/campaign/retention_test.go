package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	gort "runtime"
	"strings"
	"testing"

	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
)

// TestEvictedJobIs404: finished jobs beyond the newest terminalJobsKept
// leave the job table (their ID is then unknown: 404), while a job that is
// still queued or running stays resolvable however old it is.
func TestEvictedJobIs404(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{Workers: 2,
		runFn: func(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
			if spec.Sim.Seed == 99 {
				<-release
			}
			return executeSpec(ctx, nil, hash, spec, nil)
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := serveTest(t, NewServer(svc).Handler())
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	submit := func(seed int64) *Job {
		j, err := svc.Submit(context.Background(), jobFor(t, seed), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	held := submit(99) // stays live until released
	first := submit(1)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// terminalJobsKept cache hits finish after it: first is now one too many.
	var oldestKept *Job
	for i := 0; i < terminalJobsKept; i++ {
		if j := submit(1); i == 0 {
			oldestKept = j
		}
	}
	if got := status(first.ID); got != http.StatusNotFound {
		t.Errorf("evicted job %s: HTTP %d, want 404", first.ID, got)
	}
	if got := status(oldestKept.ID); got != http.StatusOK {
		t.Errorf("oldest kept job %s: HTTP %d, want 200", oldestKept.ID, got)
	}
	if got := status(held.ID); got != http.StatusOK || held.Status() == StatusDone {
		t.Errorf("live job %s (older than every finished one): HTTP %d, status %s", held.ID, got, held.Status())
	}
	close(release)
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// It finished last, so it is the newest finished job and displaced the
	// oldest.
	if got := status(held.ID); got != http.StatusOK {
		t.Errorf("just-finished job %s: HTTP %d, want 200", held.ID, got)
	}
	if got := status(oldestKept.ID); got != http.StatusNotFound {
		t.Errorf("displaced job %s: HTTP %d, want 404", oldestKept.ID, got)
	}
}

// TestServerRetainedHeapFlat drives never-repeated deep campaigns (21
// jobs of 128 steps with jitter, every one a miss) through the HTTP
// server with a memory cache too small to matter. Once the job table
// holds terminalJobsKept finished jobs, nothing a further campaign leaves
// behind may include its traces: the heap retained per campaign stays far
// below one job's trace, and no goroutine outlives its campaign.
func TestServerRetainedHeapFlat(t *testing.T) {
	// 1.25 × the 24.7 KB measured on linux/amd64 (go1.24) once results
	// became summaries; a deep trace is ~200 KB.
	const bound = 31 << 10
	perCampaign := retainedPerCampaign(t, Config{Workers: 2, CacheBytes: 1 << 20})
	if perCampaign > bound {
		t.Errorf("retained heap grows %d B per campaign, want ≤ %d", perCampaign, bound)
	}
}

// TestServerRetainedHeapFlatTraced is TestServerRetainedHeapFlat with a
// tracer attached and a span store that keeps every measured campaign's
// trace. Every kernel-served job defers its component and stage spans,
// and a deferred batch holds the spec it re-runs, not the trace: so the
// batches the store admits add at most 4 KiB per campaign to what the
// same service retains when a per-trace span cap refuses them all (the
// stored service spans are common to both).
func TestServerRetainedHeapFlatTraced(t *testing.T) {
	traced := func(maxSpansPerTrace int) int64 {
		return retainedPerCampaign(t, Config{Workers: 2, CacheBytes: 1 << 20,
			Tracer: tracing.NewTracer(tracing.NewStore(0, maxSpansPerTrace))})
	}
	admitted := traced(0)
	refused := traced(256) // room for a campaign's service spans, not one job's batch
	t.Logf("deferred batches admitted %d B/campaign, refused %d", admitted, refused)
	if admitted-refused > 4<<10 {
		t.Errorf("deferred spans retain %d B per campaign, want ≤ 4 KiB", admitted-refused)
	}
}

// retainedPerCampaign measures the heap a service behind the HTTP server
// retains per never-repeated deep campaign once its job table is full,
// and fails the test if a goroutine outlives its campaign.
func retainedPerCampaign(t *testing.T, cfg Config) int64 {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewServer(svc).Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	const jobsPer = 21
	campaign := func(k int) {
		seeds := make([]string, jobsPer)
		for i := range seeds {
			seeds[i] = fmt.Sprint(k*jobsPer + i + 1)
		}
		w := do("POST", "/v1/campaigns", fmt.Sprintf(
			`{"configs":["C_f"],"steps":128,"seeds":[%s],"sim":{"jitter":0.02}}`, strings.Join(seeds, ",")))
		var st CampaignStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
			t.Fatalf("POST: HTTP %d, %v", w.Code, err)
		}
		do("GET", "/v1/campaigns/"+st.ID+"/events", "") // returns at the summary event
		if err := json.Unmarshal(do("GET", "/v1/campaigns/"+st.ID, "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "done" || st.Result.Jobs != jobsPer || st.Result.CacheHits != 0 || st.Result.Failed != 0 {
			t.Fatalf("campaign %d: %+v", k, st)
		}
	}
	settled := func() (heap uint64, goroutines int) {
		gort.GC()
		gort.GC()
		var ms gort.MemStats
		gort.ReadMemStats(&ms)
		return ms.HeapAlloc, gort.NumGoroutine()
	}

	warmup := terminalJobsKept/jobsPer + 5 // fills the job table
	const measured = 300
	for k := 0; k < warmup; k++ {
		campaign(k)
	}
	heap0, g0 := settled()
	for k := warmup; k < warmup+measured; k++ {
		campaign(k)
	}
	heap1, g1 := settled()
	gort.KeepAlive(h) // the server's campaign records are part of what is measured

	perCampaign := (int64(heap1) - int64(heap0)) / measured
	t.Logf("retained heap %d → %d B over %d campaigns: %d B/campaign; goroutines %d → %d",
		heap0, heap1, measured, perCampaign, g0, g1)
	if g1 > g0 {
		t.Errorf("goroutines grew %d → %d", g0, g1)
	}
	return perCampaign
}

// TestSummaryKeepsEvictedFailures: a campaign's SSE summary lists its
// failed job even after more than terminalJobsKept newer finished jobs
// have pushed that job out of the service's job table.
func TestSummaryKeepsEvictedFailures(t *testing.T) {
	svc, err := NewService(Config{Workers: 2,
		runFn: func(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
			if spec.Sim.Seed == 2 {
				return nil, runtime.RunInfo{}, errors.New("solver diverged")
			}
			return &Result{Hash: hash, Efficiencies: []float64{1}, Objective: 1}, runtime.RunInfo{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := serveTest(t, NewServer(svc).Handler())

	st := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4,"seeds":[1,2]}`).ID)
	if st.Status != "done" || st.Result.Failed != 1 {
		t.Fatalf("campaign: %+v", st)
	}
	failedID := st.Result.Candidates[0].JobIDs[1]

	// Flood the job table with cache hits of the campaign's successful
	// job until the failed one is evicted.
	cands, err := (Sweep{Placements: []placement.Placement{placement.C15()}, Steps: 4, Seeds: []int64{1}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= terminalJobsKept; i++ {
		j, err := svc.SubmitWait(context.Background(), cands[0].Specs[0], SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := svc.Job(failedID); ok {
		t.Fatalf("job %s still in the job table; the flood did not evict it", failedID)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	_, summary := readSSE(t, resp.Body)
	resp.Body.Close()
	if summary == nil || summary.FailedJobs != 1 || len(summary.Failures) != 1 {
		t.Fatalf("summary %+v, want the one failure", summary)
	}
	want := JobFailure{Job: failedID, Label: "C1.5", Status: string(StatusFailed), Reason: "solver diverged"}
	if f := summary.Failures[0]; f != want {
		t.Errorf("failure entry %+v, want %+v", f, want)
	}
}
