package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensemblekit/internal/telemetry/tracing"
)

// newTracedServer builds a service with tracing on and mounts its HTTP
// handler.
func newTracedServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	cfg.Tracer = tracing.NewTracer(tracing.NewStore(0, 0))
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := serveTest(t, NewServer(svc).Handler())
	return ts, svc
}

// getSpans fetches and decodes a job's OTLP span export, retrying while
// late spans (the async campaign span) finish.
func getSpans(t *testing.T, ts *httptest.Server, jobID string, wantKind string) []tracing.SpanData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/spans")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /spans: HTTP %d", resp.StatusCode)
		}
		spans, err := tracing.ReadOTLP(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, d := range spans {
			kinds[d.Kind] = true
		}
		if wantKind == "" || kinds[wantKind] {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("span kind %q never appeared (have %v)", wantKind, kinds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPTracingEndToEnd(t *testing.T) {
	ts, _ := newTracedServer(t, Config{})

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	jobID := final.Result.Candidates[0].JobIDs[0]

	// The job status carries its trace ID.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	if tp := jr.Header.Get("traceparent"); tp == "" {
		t.Error("response missing traceparent header")
	} else if _, err := tracing.ParseTraceparent(tp); err != nil {
		t.Errorf("response traceparent %q: %v", tp, err)
	}
	var js jobStatus
	if err := json.NewDecoder(jr.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if js.TraceID == "" {
		t.Fatal("job status has no traceId")
	}

	// The campaign span closes asynchronously right after the poll sees
	// "done"; wait for it so the full chain is in the store.
	spans := getSpans(t, ts, jobID, "campaign")
	kinds := map[string]int{}
	for _, d := range spans {
		kinds[d.Kind]++
		if d.TraceID.String() != js.TraceID {
			t.Fatalf("span %s from foreign trace %s", d.Name, d.TraceID)
		}
	}
	for _, want := range []string{"server", "campaign", "job", "queue", "execute", "component"} {
		if kinds[want] == 0 {
			t.Errorf("no %q span in trace (kinds %v)", want, kinds)
		}
	}
	hasStage := false
	for k := range kinds {
		if strings.HasPrefix(k, "stage:") {
			hasStage = true
		}
	}
	if !hasStage {
		t.Errorf("no stage spans in trace (kinds %v)", kinds)
	}
	// The acceptance bar: request → campaign → job → execute → component
	// → stage is at least 4 levels deep.
	if got := tracing.Depth(spans); got < 4 {
		t.Errorf("span tree depth %d, want >= 4", got)
	}
}

func TestHTTPCriticalPathSumsToJobLatency(t *testing.T) {
	ts, _ := newTracedServer(t, Config{})

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	jobID := final.Result.Candidates[0].JobIDs[0]

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/critical-path")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /critical-path: HTTP %d", resp.StatusCode)
	}
	var cp tracing.CriticalPath
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	if cp.TotalSec <= 0 || len(cp.Segments) == 0 || len(cp.ByKind) == 0 {
		t.Fatalf("degenerate critical path: %+v", cp)
	}
	sum := 0.0
	for _, seg := range cp.Segments {
		sum += seg.Sec
	}
	// The acceptance criterion is 1%; the construction makes it exact up
	// to float rounding.
	if math.Abs(sum-cp.TotalSec) > 0.01*cp.TotalSec {
		t.Errorf("segments sum %.9fs vs job latency %.9fs", sum, cp.TotalSec)
	}
	fracs := 0.0
	for _, k := range cp.ByKind {
		fracs += k.Frac
	}
	if math.Abs(fracs-1) > 0.01 {
		t.Errorf("ByKind fractions sum to %.4f, want 1", fracs)
	}
}

func TestHTTPTraceparentJoinsIncomingTrace(t *testing.T) {
	ts, _ := newTracedServer(t, Config{})

	const parent = "00-11111111111111111111111111111111-2222222222222222-01"
	req, err := http.NewRequest("POST", ts.URL+"/v1/campaigns",
		strings.NewReader(`{"configs":["C1.5"],"steps":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, "11111111111111111111111111111111") {
		t.Errorf("response traceparent %q not in the caller's trace", tp)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	final := pollCampaign(t, ts, st.ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	jobID := final.Result.Candidates[0].JobIDs[0]
	jr, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatus
	err = json.NewDecoder(jr.Body).Decode(&js)
	jr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if js.TraceID != "11111111111111111111111111111111" {
		t.Errorf("job traceId %q, want the propagated trace", js.TraceID)
	}
}

func TestHTTPSpanEndpointsWithoutTracer(t *testing.T) {
	ts, _ := newTestServer(t) // no tracer

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	jobID := final.Result.Candidates[0].JobIDs[0]
	for _, path := range []string{"/spans", "/critical-path"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on untraced service: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	// The job status degrades to no traceId rather than erroring.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatus
	err = json.NewDecoder(jr.Body).Decode(&js)
	jr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if js.TraceID != "" {
		t.Errorf("untraced job reports traceId %q", js.TraceID)
	}
}

func TestHTTPTraceMergesServiceSpans(t *testing.T) {
	ts, _ := newTracedServer(t, Config{})

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
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && strings.Contains(string(ev.Args), `"service"`) {
			found = true
		}
	}
	if !found {
		t.Error("Perfetto export has no merged service process")
	}
}

func TestHTTPSSEResumeWithLastEventID(t *testing.T) {
	ts, _ := newTracedServer(t, Config{})

	st := postCampaign(t, ts, `{"name":"resume","configs":["table2"],"steps":4}`)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, summary := readSSE(t, resp.Body)
	resp.Body.Close()
	if summary == nil || len(events) < 3 {
		t.Fatalf("first stream: %d events, summary %v", len(events), summary)
	}
	for _, ev := range events {
		if ev.Seq == 0 {
			t.Fatalf("event without sequence number: %+v", ev)
		}
	}

	// Reconnect claiming we saw everything up to the third event; the
	// replay must skip what we already have and repeat nothing.
	lastID := events[2].Seq
	req, err := http.NewRequest("GET", ts.URL+"/v1/campaigns/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed, summary2 := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if summary2 == nil {
		t.Fatal("resumed stream ended without a summary")
	}
	if want := len(events) - 3; len(resumed) != want {
		t.Fatalf("resumed %d events, want %d", len(resumed), want)
	}
	for _, ev := range resumed {
		if ev.Seq <= lastID {
			t.Errorf("resumed stream repeated event seq %d (<= %d)", ev.Seq, lastID)
		}
	}
}

func TestHTTPFailureReasonsSurface(t *testing.T) {
	boom := errors.New("solver diverged")
	ts, svc := newTracedServer(t, Config{
		runFn: plainRun(func(context.Context, JobSpec) (*Result, error) { return nil, boom }),
	})

	st := postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`)
	final := pollCampaign(t, ts, st.ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	jobID := final.Result.Candidates[0].JobIDs[0]

	// Job status JSON carries the reason.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatus
	err = json.NewDecoder(jr.Body).Decode(&js)
	jr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != StatusFailed || js.Reason != "solver diverged" {
		t.Errorf("job status %+v, want failed with reason", js)
	}

	// The SSE terminal summary lists the failure with its reason, and the
	// terminal job event carries it too.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, summary := readSSE(t, resp.Body)
	resp.Body.Close()
	if summary == nil || len(summary.Failures) != 1 {
		t.Fatalf("summary %+v, want one failure", summary)
	}
	f := summary.Failures[0]
	if f.Job != jobID || f.Status != string(StatusFailed) || f.Reason != "solver diverged" {
		t.Errorf("failure entry %+v", f)
	}
	sawTerminal := false
	for _, ev := range events {
		if ev.Job == jobID && ev.Terminal() {
			sawTerminal = true
			if ev.Reason != "solver diverged" {
				t.Errorf("terminal event reason %q", ev.Reason)
			}
		}
	}
	if !sawTerminal {
		t.Error("no terminal event for the failed job")
	}

	// The failed job's span is marked errored.
	j, ok := svc.Job(jobID)
	if !ok {
		t.Fatal("job vanished")
	}
	spans := svc.Tracer().Store().Spans(j.span.Context().TraceID)
	jobErrored := false
	for _, d := range spans {
		if d.Kind == "job" && d.IsError && d.Status == "solver diverged" {
			jobErrored = true
		}
	}
	if !jobErrored {
		t.Error("failed job's span not marked errored")
	}
}

func TestJobReasonCancellation(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(ctx context.Context, spec JobSpec) (*Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	// Occupy the worker, then cancel a queued job: "cancelled by
	// submitter".
	blocker, err := svc.Submit(context.Background(), jobFor(t, 301), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = blocker
	queued, err := svc.Submit(context.Background(), jobFor(t, 302), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); err == nil {
		t.Fatal("cancelled job returned no error")
	}
	if got := queued.Reason(); got != "cancelled by submitter" {
		t.Errorf("cancel reason %q, want %q", got, "cancelled by submitter")
	}

	// Jobs still queued at Close report "service shutdown".
	shutdownVictim, err := svc.Submit(context.Background(), jobFor(t, 303), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if got := shutdownVictim.Reason(); got != "service shutdown" {
		t.Errorf("shutdown reason %q, want %q", got, "service shutdown")
	}
	if got := queued.Status(); got != StatusCancelled {
		t.Errorf("cancelled job status %s", got)
	}
}
