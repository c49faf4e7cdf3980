//go:build linux

package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func fakeCluster(ts *httptest.Server) *cluster {
	return &cluster{nodes: []*node{{id: "n1", base: ts.URL}}, hc: ts.Client()}
}

// A server that sheds load answers 503: every campaign of the window is
// attempted, counted as failed, and missing from both percentiles.
func TestRefusedCampaignsCountAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"campaign: job queue full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	wl, _ := workloadByName("shallow-cold")
	w := runWindow(context.Background(), fakeCluster(ts), wl, 1, 2, 30*time.Millisecond, true)
	if w.failed == 0 || len(w.latencies) != 0 || w.attempted() != w.failed {
		t.Fatalf("attempted %d, failed %d, %d latencies; want all failed", w.attempted(), w.failed, len(w.latencies))
	}
	if w.firstErr == nil || len(w.kept) != 0 {
		t.Fatalf("firstErr %v, %d kept results", w.firstErr, len(w.kept))
	}
	for _, q := range []float64{0.5, 0.9} {
		if got := percentile(w.latencies, w.failed, q); got != failedLatency {
			t.Errorf("p%v = %v, want %v", 100*q, got, failedLatency)
		}
	}
	// The traced client still closed a campaign span and a post span per
	// attempt.
	s := summarizeSpans(w.logs)
	if len(s.byName[spanCampaign]) != w.failed || len(s.byName[spanPost]) != w.failed {
		t.Errorf("%d campaign and %d post spans for %d attempts", len(s.byName[spanCampaign]), len(s.byName[spanPost]), w.failed)
	}
}

// A campaign whose event stream never reaches its summary times out and
// is an error, which the closed loop counts as failed.
func TestStalledCampaignTimesOut(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"c-1","status":"running"}`)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	sub := &submitter{hc: ts.Client(), bases: []string{ts.URL}, timeout: 50 * time.Millisecond}
	wl, _ := workloadByName("warm")
	start := time.Now()
	_, _, err := sub.run(context.Background(), wl.gen(1, 0, 0), "t")
	if err == nil {
		t.Fatal("stalled campaign reported success")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

// A well-formed conversation passes every in-window check; a result with
// a short ranking does not.
func TestSubmitterChecksTheResult(t *testing.T) {
	ranking := `[1,2,3,4,5,6,7]`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"c-9","status":"running"}`)
		case r.URL.Path == "/v1/campaigns/c-9/events":
			fmt.Fprint(w, "id: 1\nevent: job\ndata: {\"status\":\"done\"}\n\n")
			fmt.Fprintf(w, "event: summary\ndata: {\"campaign\":\"c-9\",\"status\":\"done\",\"jobs\":%d,\"failedJobs\":0}\n\n", sweepJobs)
		default:
			fmt.Fprintf(w, `{"id":"c-9","status":"done","result":{"jobs":%d,"failed":0,"ranking":%s}}`, sweepJobs, ranking)
		}
	}))
	defer ts.Close()
	log := &spanLog{}
	sub := &submitter{hc: ts.Client(), bases: []string{ts.URL}, timeout: 5 * time.Second, log: log}
	wl, _ := workloadByName("warm")
	body, lat, err := sub.run(context.Background(), wl.gen(1, 0, 0), "t")
	if err != nil || len(body) == 0 || lat <= 0 {
		t.Fatalf("run = %d bytes, %v, %v", len(body), lat, err)
	}
	s := summarizeSpans([]*spanLog{log})
	for _, name := range []string{spanCampaign, spanPost, spanStream, spanGetResult, spanDecode} {
		if len(s.byName[name]) != 1 {
			t.Errorf("%d %s spans, want 1", len(s.byName[name]), name)
		}
	}
	if len(s.firstEvent) != 1 || len(s.self) != 1 || s.self[0] < 0 || s.self[0] > s.byName[spanCampaign][0] {
		t.Errorf("first_event %v, self %v of campaign %v", s.firstEvent, s.self, s.byName[spanCampaign])
	}

	ranking = `[1,2,3]`
	if _, _, err := sub.run(context.Background(), wl.gen(1, 0, 1), "t2"); err == nil {
		t.Error("a ranking of 3 passed the check")
	}
}
