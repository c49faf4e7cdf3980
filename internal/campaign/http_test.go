package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/telemetry"
)

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return serveTest(t, NewServer(svc).Handler()), svc
}

// serveTest serves h on an httptest server that the test's cleanup
// closes with closeTestServer.
func serveTest(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() { closeTestServer(ts) })
	return ts
}

// closeTestServer closes ts and drops its handler. Close alone does not
// let the handler go: it arms a five-second hang report and stops it,
// and the runtime sweeps a stopped timer out of its heap only later, so
// the closed server, and through its handler a whole Service, stays
// reachable for a while. The retention tests would count that earlier
// test's jobs in their heap baseline.
func closeTestServer(ts *httptest.Server) {
	ts.Close()
	ts.Config.Handler = nil
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) CampaignStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/campaigns: HTTP %d", resp.StatusCode)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollCampaign(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %d/%d", id, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	st := postCampaign(t, ts, `{"name":"t2","configs":["table2"],"steps":4}`)
	if st.ID == "" || st.Total != 7 {
		t.Fatalf("accepted status %+v", st)
	}
	final := pollCampaign(t, ts, st.ID)
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("final status %+v", final)
	}
	if len(final.Result.Ranking) != 7 || final.Done != 7 {
		t.Errorf("ranking %d entries, done %d", len(final.Result.Ranking), final.Done)
	}

	// The listing shows the campaign without the heavy result payload.
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].Result != nil {
		t.Errorf("listing %+v", list)
	}
}

// Requests over a work bound are refused at the edge with a reason that
// names the bound, and the server stays ready. Unbounded, the steps
// request alone sized ~86 GB of stage records and killed the process.
func TestHTTPRefusesOverBoundRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	seeds := make([]string, maxCampaignJobs/7+1) // × 7 Table 2 placements
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	// One node over the bound, not a huge count: should the bound ever
	// go, the request builds a 4 097-node plan, not a 100 GB one.
	bigCluster, err := json.Marshal(cluster.Cori(maxClusterNodes + 1))
	if err != nil {
		t.Fatal(err)
	}
	nodesBound := fmt.Sprintf("above the %d-node bound", maxClusterNodes)
	for _, c := range []struct {
		name, body string
		code       int
		reason     string
	}{
		{"steps", `{"configs":["C1.5"],"steps":100000000}`,
			http.StatusUnprocessableEntity, fmt.Sprintf("above the %d bound", maxJobWork)},
		{"nodeCounts", fmt.Sprintf(`{"configs":["C1.5"],"nodeCounts":[3,%d]}`, maxClusterNodes+1),
			http.StatusUnprocessableEntity, nodesBound},
		{"cluster", `{"configs":["C1.5"],"cluster":` + string(bigCluster) + `}`,
			http.StatusUnprocessableEntity, nodesBound},
		// C1.5's 2 members span 2 nodes: 4 097 members need 4 098 nodes,
		// refused before the replica is built (a huge count would
		// otherwise allocate ≈ 1 KB a member first).
		{"memberCounts", fmt.Sprintf(`{"configs":["C1.5"],"memberCounts":[%d]}`, maxClusterNodes+1),
			http.StatusUnprocessableEntity, fmt.Sprintf("× %d members needs more than", maxClusterNodes+1)},
		{"jobs", `{"configs":["table2"],"seeds":[` + strings.Join(seeds, ",") + `]}`,
			http.StatusUnprocessableEntity, fmt.Sprintf("more than %d jobs", maxCampaignJobs)},
		{"body", `{"name":"` + strings.Repeat("x", maxCampaignBody) + `"}`,
			http.StatusRequestEntityTooLarge, fmt.Sprintf("over the %d-byte bound", maxCampaignBody)},
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || !strings.Contains(string(b), c.reason) {
			t.Errorf("%s: HTTP %d %s, want %d naming %q", c.name, resp.StatusCode, b, c.code, c.reason)
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz answered %d after the refusals", resp.StatusCode)
	}
	if st := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID); st.Status != "done" {
		t.Fatalf("campaign after the refusals: %+v", st)
	}
}

func TestHTTPStatsReportWarmRerun(t *testing.T) {
	ts, _ := newTestServer(t)

	body := `{"configs":["C1.5","C1.4"],"steps":4}`
	first := pollCampaign(t, ts, postCampaign(t, ts, body).ID)
	if first.Status != "done" {
		t.Fatalf("cold run: %+v", first)
	}
	second := pollCampaign(t, ts, postCampaign(t, ts, body).ID)
	if second.Status != "done" {
		t.Fatalf("warm run: %+v", second)
	}
	if second.Result.CacheHits != second.Result.Jobs {
		t.Errorf("warm run hit %d/%d", second.Result.CacheHits, second.Result.Jobs)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Stats
		HitRate float64 `json:"hitRate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 2 || stats.CacheMisses != 2 || stats.HitRate != 0.5 {
		t.Errorf("stats %+v", stats)
	}
}

func TestHTTPJobTraceDownload(t *testing.T) {
	ts, _ := newTestServer(t)

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	jobID := final.Result.Candidates[0].JobIDs[0]

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: HTTP %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("empty Perfetto trace")
	}

	// The job endpoint itself reports the finished state.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var js struct {
		Status Status `json:"status"`
	}
	if err := json.NewDecoder(jr.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if js.Status != StatusDone {
		t.Errorf("job status %s", js.Status)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/campaigns", `{"configs":["C9.9"]}`, http.StatusBadRequest},
		{"POST", "/v1/campaigns", `{"bogus":true}`, http.StatusBadRequest},
		{"POST", "/v1/campaigns", `{}`, http.StatusBadRequest}, // no placements
		{"GET", "/v1/campaigns/c-404", "", http.StatusNotFound},
		{"GET", "/v1/jobs/j-404", "", http.StatusNotFound},
		{"GET", "/v1/jobs/j-404/trace", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: HTTP %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPHealthAndReadiness: liveness always answers 200; readiness
// answers 503 with its reasons while draining (which also refuses new
// campaigns) or while a registered check blocks.
func TestHTTPHealthAndReadiness(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	ts := serveTest(t, srv.Handler())
	probe := func(path string, wantCode int, wantStatus string, wantReasons ...string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status  string   `json:"status"`
			Reasons []string `json:"reasons"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || body.Status != wantStatus || !slices.Equal(body.Reasons, wantReasons) {
			t.Errorf("GET %s: %d %+v, want %d %s %v", path, resp.StatusCode, body, wantCode, wantStatus, wantReasons)
		}
	}
	probe("/healthz", http.StatusOK, "ok")
	probe("/readyz", http.StatusOK, "ready")

	srv.SetDraining(true)
	probe("/readyz", http.StatusServiceUnavailable, "unavailable", "draining")
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"configs":["C1.5"],"steps":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: HTTP %d, want 503", resp.StatusCode)
	}

	srv.SetDraining(false)
	srv.AddReadyCheck(func() []string { return []string{"pool: join pending"} })
	probe("/readyz", http.StatusServiceUnavailable, "unavailable", "pool: join pending")
	probe("/healthz", http.StatusOK, "ok")
}

// readSSE consumes a text/event-stream body until the summary event (or
// EOF), returning the job events and the summary.
func readSSE(t *testing.T, body io.Reader) ([]JobEvent, *CampaignSummary) {
	t.Helper()
	var (
		events  []JobEvent
		summary *CampaignSummary
		event   string
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "job":
				var ev JobEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					t.Fatalf("job event %s: %v", data, err)
				}
				events = append(events, ev)
			case "summary":
				summary = &CampaignSummary{}
				if err := json.Unmarshal(data, summary); err != nil {
					t.Fatalf("summary event %s: %v", data, err)
				}
				return events, summary
			case "error":
				t.Fatalf("stream error event: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events, summary
}

func TestHTTPSSEStreamsCampaign(t *testing.T) {
	ts, _ := newTestServer(t)

	st := postCampaign(t, ts, `{"name":"sse","configs":["table2"],"steps":4}`)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events, summary := readSSE(t, resp.Body)
	if summary == nil {
		t.Fatal("stream ended without a summary event")
	}
	if summary.Status != "done" || summary.Jobs != 7 || summary.Campaign != st.ID {
		t.Errorf("summary %+v", summary)
	}
	if summary.Best == "" || summary.Objective == 0 {
		t.Errorf("summary missing ranking head: %+v", summary)
	}

	terminals := map[string]int{}
	for _, ev := range events {
		if ev.Campaign != st.ID {
			t.Fatalf("event from foreign campaign: %+v", ev)
		}
		if ev.Terminal() {
			terminals[ev.Job]++
		}
	}
	if len(terminals) != 7 {
		t.Fatalf("saw %d jobs, want 7 (events %+v)", len(terminals), events)
	}
	for job, n := range terminals {
		if n != 1 {
			t.Errorf("job %s: %d terminal events", job, n)
		}
	}
}

func TestHTTPSSEUnknownCampaign(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/campaigns/c-404/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestHTTPQueueFullRejectsCampaign(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers:    1,
		QueueDepth: 1,
		Metrics:    telemetry.NewRegistry(),
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			<-release
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(release)
	ts := serveTest(t, NewServer(svc).Handler())

	// Saturate: one job running, one filling the single queue slot.
	if _, err := svc.Submit(context.Background(), jobFor(t, 101), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(context.Background(), jobFor(t, 102), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"configs":["C1.5"],"steps":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}
	if got := svc.metrics.rejected.Value(); got != 1 {
		t.Errorf("campaign_queue_rejected_total = %v, want 1", got)
	}
	if got := svc.Stats().Rejected; got != 1 {
		t.Errorf("stats.Rejected = %d, want 1", got)
	}
}

func TestHTTPMetricsAfterTraffic(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, err := NewService(Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	mux.Handle("/v1/", NewServer(svc).Handler())
	mux.Handle("GET /metrics", reg.Handler())
	ts := serveTest(t, mux)

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	if final.Status != "done" {
		t.Fatalf("campaign %+v", final)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`campaign_jobs_finished_total{status="done"} 1`,
		"campaign_submitted_total 1",
		"campaign_execute_seconds_count 1",
		`http_requests_total{route="POST /v1/campaigns",code="202"} 1`,
		"http_request_duration_seconds_bucket",
		"campaign_cache_hits_total", "campaign_queue_depth", "campaign_execute_seconds_bucket",
		"campaign_core_seconds_total", "campaign_core_seconds_saved_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, " ") {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestHTTPMetricsConcurrentScrape hammers /metrics from many goroutines
// while campaigns mutate every metric family underneath — the scrape
// path must stay race-free (run with -race) and each exposition must be
// well-formed.
func TestHTTPMetricsConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, err := NewService(Config{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	mux.Handle("/v1/", NewServer(svc).Handler())
	mux.Handle("GET /metrics", reg.Handler())
	ts := serveTest(t, mux)

	// Scrapers run in goroutines; the campaigns (and t.Fatal-bearing
	// helpers) stay on the test goroutine.
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("/metrics HTTP %d", resp.StatusCode)
					return
				}
				if len(body) > 0 && !strings.HasPrefix(string(body), "#") {
					errs <- fmt.Errorf("exposition does not start with a comment: %.40s", body)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5","C2.1"],"steps":4}`).ID)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPListCampaignsOrdersByNumericSuffix: the listing of a few
// thousand campaigns, inserted shuffled, comes back c-1, c-2, ..., c-10,
// ... — numeric order, not lexicographic.
func TestHTTPListCampaignsOrdersByNumericSuffix(t *testing.T) {
	const n = 2500
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		id := fmt.Sprintf("c-%d", i+1)
		srv.campaigns[id] = &campaignRun{id: id, done: make(chan struct{})}
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/campaigns", nil))
	var list []CampaignStatus
	if err := json.NewDecoder(w.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != n {
		t.Fatalf("listed %d campaigns, want %d", len(list), n)
	}
	for i, st := range list {
		if want := fmt.Sprintf("c-%d", i+1); st.ID != want {
			t.Fatalf("position %d holds %s, want %s", i, st.ID, want)
		}
	}
}
