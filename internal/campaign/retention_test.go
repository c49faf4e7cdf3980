package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	gort "runtime"
	"slices"
	"strings"
	"testing"
	"time"

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
// holds terminalJobsKept finished jobs and the server as many finished
// campaigns' jobs, a further campaign leaves behind only what the small
// result cache and the node ledger add, never its traces, and no
// goroutine outlives its campaign.
func TestServerRetainedHeapFlat(t *testing.T) {
	// 1.25 × the 4.9 KB measured on linux/amd64 (go1.24) once finished
	// campaigns and job contexts were released (most of what is left is
	// the node ledger's entry per new hash); a deep trace is ~200 KB.
	const bound = 6200
	perCampaign := retainedPerCampaign(t, Config{Workers: 2, CacheBytes: 1 << 20}, false, 300)
	if perCampaign > bound {
		t.Errorf("retained heap grows %d B per campaign, want ≤ %d", perCampaign, bound)
	}
}

// TestServerRetainedHeapFlatWarm re-posts one Table 2 sweep, every job a
// cache hit, for 2 000 campaigns after the windows fill: the server
// evicts a finished campaign as fast as it takes a new one, so what each
// leaves behind is noise (≈ 130 B measured on linux/amd64, go1.24; it
// was 15.7 KB while every campaign and its ledger stayed forever).
func TestServerRetainedHeapFlatWarm(t *testing.T) {
	if perCampaign := retainedPerCampaign(t, Config{Workers: 2}, true, 2000); perCampaign > 1<<10 {
		t.Errorf("retained heap grows %d B per warm campaign, want ≤ 1 KiB", perCampaign)
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
			Tracer: tracing.NewTracer(tracing.NewStore(0, maxSpansPerTrace))}, false, 300)
	}
	admitted := traced(0)
	refused := traced(256) // room for a campaign's service spans, not one job's batch
	t.Logf("deferred batches admitted %d B/campaign, refused %d", admitted, refused)
	if admitted-refused > 4<<10 {
		t.Errorf("deferred spans retain %d B per campaign, want ≤ 4 KiB", admitted-refused)
	}
}

// retainedPerCampaign measures the heap a service behind the HTTP server
// retains per campaign over measured campaigns, once its job table and
// the server's finished campaigns are full, and fails the test if a
// goroutine outlives its campaign. A campaign is 21 jobs: a warm one
// re-posts the Table 2 sweep (every job after the first campaign a cache
// hit), a cold one 21 never-repeated deep jobs (every one a miss).
func retainedPerCampaign(t *testing.T, cfg Config, warm bool, measured int) int64 {
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
		body := `{"configs":["table2"],"steps":8,"seeds":[1,2,3]}`
		if !warm {
			body = fmt.Sprintf(`{"configs":["C_f"],"steps":128,"seeds":%s,"sim":{"jitter":0.02}}`,
				seedList(k*jobsPer+1, (k+1)*jobsPer+1))
		}
		w := do("POST", "/v1/campaigns", body)
		var st CampaignStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
			t.Fatalf("POST: HTTP %d, %v", w.Code, err)
		}
		do("GET", "/v1/campaigns/"+st.ID+"/events", "") // returns at the summary event
		if err := json.Unmarshal(do("GET", "/v1/campaigns/"+st.ID, "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		hits := 0
		if warm && k > 0 {
			hits = jobsPer
		}
		if st.Status != "done" || st.Result.Jobs != jobsPer || st.Result.CacheHits != hits || st.Result.Failed != 0 {
			t.Fatalf("campaign %d: %+v", k, st)
		}
	}
	warmup := terminalJobsKept/jobsPer + 5 // fills the job table and the finished campaigns
	for k := 0; k < warmup; k++ {
		campaign(k)
	}
	heap0, g0 := settled()
	for k := warmup; k < warmup+measured; k++ {
		campaign(k)
	}
	heap1, g1 := settled()
	gort.KeepAlive(h) // the server's campaign records are part of what is measured

	perCampaign := (int64(heap1) - int64(heap0)) / int64(measured)
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

// seedList renders seeds from..to-1 as a JSON array body fragment.
func seedList(from, to int) string {
	seeds := make([]string, 0, to-from)
	for s := from; s < to; s++ {
		seeds = append(seeds, fmt.Sprint(s))
	}
	return "[" + strings.Join(seeds, ",") + "]"
}

// TestEvictedCampaignIsGone: once the finished campaigns held hold more
// than terminalJobsKept jobs, the oldest finished campaign leaves with its
// ledger: GET, /events and /accounting answer 404 and the listing omits
// it. A running campaign older than every finished one survives, and a
// transition that arrives after its campaign was forgotten does not bring
// the ledger back.
func TestEvictedCampaignIsGone(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{Workers: 2,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			if spec.Sim.Seed <= 0 {
				<-release
			}
			return &Result{Efficiencies: []float64{1}, Objective: 1}, nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	ts := serveTest(t, srv.Handler())
	defer close(release)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	listed := func() []string {
		resp, err := http.Get(ts.URL + "/v1/campaigns")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list []CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(list))
		for i, st := range list {
			ids[i] = st.ID
		}
		return ids
	}

	running := postCampaign(t, ts, `{"configs":["C1.5"],"steps":4,"seeds":[0]}`).ID
	// Five finished campaigns of 1 000 jobs: the fifth puts 5 000 finished
	// jobs on the books, so the first of them is evicted (4 000 remain).
	const jobs = 1000
	var done []string
	for k := 0; k < 5; k++ {
		st := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4,"seeds":`+seedList(1, 1+jobs)+`}`).ID)
		if st.Status != "done" || st.Result.Jobs != jobs {
			t.Fatalf("campaign %s: %s, %d jobs", st.ID, st.Status, st.Total)
		}
		done = append(done, st.ID)
	}
	evicted := done[0]
	// The runner retires a campaign just after resolving it: wait for the
	// last one to be filed.
	deadline := time.Now().Add(10 * time.Second)
	for get("/v1/campaigns/"+evicted) != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still held after %d newer finished jobs", evicted, 4*jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, path := range []string{"", "/events", "/accounting"} {
		if got := get("/v1/campaigns/" + evicted + path); got != http.StatusNotFound {
			t.Errorf("GET %s%s: HTTP %d, want 404", evicted, path, got)
		}
	}
	if _, ok := svc.CampaignAccounting(evicted); ok {
		t.Errorf("campaign %s: ledger left after eviction", evicted)
	}
	if got, want := listed(), append([]string{running}, done[1:]...); !slices.Equal(got, want) {
		t.Errorf("listing %v, want %v", got, want)
	}
	for _, id := range append([]string{running}, done[1:]...) {
		for _, path := range []string{"", "/accounting"} {
			if got := get("/v1/campaigns/" + id + path); got != http.StatusOK {
				t.Errorf("GET %s%s: HTTP %d, want 200", id, path, got)
			}
		}
	}
	srv.mu.Lock()
	held, heldJobs := len(srv.finished), srv.finishedJobs
	srv.mu.Unlock()
	if held != 4 || heldJobs != 4*jobs {
		t.Errorf("finished queue holds %d campaigns of %d jobs, want 4 of %d", held, heldJobs, 4*jobs)
	}

	// A charge that lands after its campaign was forgotten goes to the
	// ledger the job holds, not to a new one.
	j, err := svc.Submit(context.Background(), jobFor(t, -1), SubmitOptions{Campaign: "late"})
	if err != nil {
		t.Fatal(err)
	}
	svc.forgetCampaign("late")
	release <- struct{}{} // the running campaign's job holds the other worker
	release <- struct{}{}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.CampaignAccounting("late"); ok {
		t.Error("a late transition re-created a forgotten campaign's ledger")
	}
	if st := pollCampaign(t, ts, running); st.Status != "done" {
		t.Errorf("running campaign %s ended %s", running, st.Status)
	}
}

// TestOverloadShedsAndDrains saturates the queue behind a stalled worker
// until a campaign POST is shed (503 with Retry-After), with an SSE
// stream open on every accepted campaign, then lets the work drain.
// Every stream ends with its summary; afterwards no stream is still
// subscribed, the goroutine count is back at its baseline, and the
// server holds exactly the accepted campaigns: a shed POST leaves no
// record.
func TestOverloadShedsAndDrains(t *testing.T) {
	gate := make(chan struct{})
	svc, err := NewService(Config{Workers: 1, QueueDepth: 4,
		runFn: plainRun(func(context.Context, JobSpec) (*Result, error) {
			<-gate
			return &Result{Efficiencies: []float64{1}, Objective: 1}, nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	ts := serveTest(t, srv.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	gort.GC()
	baseline := gort.NumGoroutine()

	var streams []*http.Response
	var shed *http.Response
	for k := 0; shed == nil; k++ {
		if k == 50 {
			t.Fatal("50 campaigns accepted; the queue never saturated")
		}
		resp, err := client.Post(ts.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"configs":["C1.5"],"steps":4,"seeds":`+seedList(3*k+1, 3*k+4)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			shed = resp
			break
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: HTTP %d, %v", k, resp.StatusCode, err)
		}
		stream, err := client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream)
		time.Sleep(2 * time.Millisecond) // let the runner fill the queue
	}
	io.Copy(io.Discard, shed.Body)
	shed.Body.Close()
	if shed.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if subs, _, _ := svc.Events().Stats(); subs != len(streams) {
		t.Errorf("%d subscribers while %d streams are open", subs, len(streams))
	}

	close(gate)
	for i, stream := range streams {
		if _, summary := readSSE(t, stream.Body); summary == nil || summary.Status != "done" {
			t.Errorf("stream %d ended without a done summary: %+v", i, summary)
		}
		stream.Body.Close()
	}
	client.CloseIdleConnections()

	// A campaign's runner goroutine retires it before exiting, so once the
	// count is back at the baseline every campaign is on the finished
	// queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		subs, _, _ := svc.Events().Stats()
		gort.GC()
		g := gort.NumGoroutine()
		if subs == 0 && g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the drain: %d subscribers, %d goroutines (baseline %d)", subs, g, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.mu.Lock()
	held, finished, jobs := len(srv.campaigns), len(srv.finished), srv.finishedJobs
	srv.mu.Unlock()
	if held != len(streams) || finished != held || jobs != 3*held {
		t.Errorf("server holds %d campaigns (%d finished, %d jobs); want the %d accepted, all finished, 3 jobs each",
			held, finished, jobs, len(streams))
	}
}

// settled collects garbage and returns the live heap and the goroutine
// count.
func settled() (heap uint64, goroutines int) {
	gort.GC()
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return ms.HeapAlloc, gort.NumGoroutine()
}
