package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	gort "runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ensemblekit/internal/runtime"
)

// finishedCampaign runs a Table 2 sweep (8 steps, 3 seeds: 21 jobs)
// through the HTTP API of a fresh server and returns the server, its
// handler and the finished campaign's record.
func finishedCampaign(t *testing.T) (*Server, http.Handler, *campaignRun) {
	t.Helper()
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/campaigns",
		strings.NewReader(`{"name":"warm","configs":["table2"],"steps":8,"seeds":[1,2,3]}`)))
	var st CampaignStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d, %v", w.Code, err)
	}
	srv.mu.Lock()
	run := srv.campaigns[st.ID]
	srv.mu.Unlock()
	<-run.done
	if st := run.status(); st.Status != "done" || st.Result.Jobs != 21 {
		t.Fatalf("campaign %+v", st)
	}
	return srv, h, run
}

// flushCounter is a response recorder that counts flushes — each is one
// write to the client on a real connection — and how much of the body
// the last one sent.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes, flushed int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.flushed = f.Body.Len()
	f.ResponseRecorder.Flush()
}

// TestSSEReplayFlushesOnce: a stream whose campaign already finished is
// all replay plus the summary, and goes out in at most two flushes. Its
// bytes are the event lines the stream has always written — an `id:`
// per job event, `event:` and `data:` lines, a blank line — and a
// Last-Event-ID resumes it after that event.
func TestSSEReplayFlushesOnce(t *testing.T) {
	srv, h, run := finishedCampaign(t)
	replay, _, cancel := srv.svc.Events().SubscribeCampaign(run.id, run.eventsAfter)
	cancel()
	if len(replay) < 21 {
		t.Fatalf("replay holds %d events, want every job's", len(replay))
	}
	summary, err := json.Marshal(run.summary())
	if err != nil {
		t.Fatal(err)
	}
	want := func(evs []JobEvent) string {
		var b strings.Builder
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "id: %d\nevent: job\ndata: %s\n\n", ev.Seq, data)
		}
		fmt.Fprintf(&b, "event: summary\ndata: %s\n\n", summary)
		return b.String()
	}

	for _, from := range []int{0, 1, len(replay) / 2, len(replay)} {
		req := httptest.NewRequest("GET", "/v1/campaigns/"+run.id+"/events", nil)
		if from > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatInt(replay[from-1].Seq, 10))
		}
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "text/event-stream" {
			t.Fatalf("resume after %d: HTTP %d, %q", from, w.Code, w.Header().Get("Content-Type"))
		}
		if w.flushes > 2 || w.flushed != w.Body.Len() {
			t.Errorf("resume after %d: %d events in %d flushes, %d of %d bytes flushed; want ≤ 2 flushes of all",
				from, len(replay)-from, w.flushes, w.flushed, w.Body.Len())
		}
		if got := w.Body.String(); got != want(replay[from:]) {
			t.Errorf("resume after %d: stream\n%s\nwant\n%s", from, got, want(replay[from:]))
		}
	}
}

// TestSSEClosedStreamEndsWithError: when the broadcaster closes a live
// stream's channel (a drop, or the service closing), the stream flushes
// what it wrote and ends with an error event instead of a summary.
func TestSSEClosedStreamEndsWithError(t *testing.T) {
	gate := make(chan struct{})
	svc, err := NewService(Config{Workers: 1,
		runFn: func(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
			<-gate
			return &Result{Hash: hash, Efficiencies: []float64{1}, Objective: 1}, runtime.RunInfo{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(gate)
	h := NewServer(svc).Handler()
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(`{"configs":["C1.5"],"steps":8}`)))
	var st CampaignStatus
	if err := json.Unmarshal(post.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/campaigns/"+st.ID+"/events", nil))
	}()
	// Close once the stream is subscribed and the campaign's first job
	// event exists: it is then in the replay or buffered on the stream's
	// channel, so the stream has something to flush before the error.
	for {
		if n, _, _ := svc.Events().Stats(); n == 1 && svc.Events().Seq() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.Events().Close()
	<-done
	body := w.Body.String()
	if !strings.HasPrefix(body, "id: ") || !strings.HasSuffix(body, "\n\nevent: error\ndata: {\"error\":\"event stream dropped (subscriber too slow or service closing)\"}\n\n") {
		t.Errorf("stream %q: want the replay, then an error event", body)
	}
	if w.flushed != len(body) {
		t.Errorf("%d of %d bytes flushed", w.flushed, len(body))
	}
}

// TestFinishedCampaignHoldsNoSpec: nothing reads a candidate's specs
// after submission, so the record a finished campaign keeps for its GETs
// holds no JobSpec (nor per-seed results).
func TestFinishedCampaignHoldsNoSpec(t *testing.T) {
	_, _, run := finishedCampaign(t)
	specType, resultType := reflect.TypeOf(JobSpec{}), reflect.TypeOf(Result{})
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Type() {
		case specType, resultType:
			t.Errorf("%s holds a %s", path, v.Type())
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value())
			}
		}
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	walk("result", reflect.ValueOf(run.result))
}

// warmCampaigner returns a client of ts that POSTs the Table 2 sweep (8
// steps, 3 seeds: 21 jobs), reads its SSE stream to the summary, then
// GETs the campaign and returns its status.
func warmCampaigner(tb testing.TB, client *http.Client, ts *httptest.Server) func() CampaignStatus {
	const body = `{"name":"warm","configs":["table2"],"steps":8,"seeds":[1,2,3]}`
	return func() CampaignStatus {
		resp, err := client.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			tb.Fatalf("POST: HTTP %d, %v", resp.StatusCode, err)
		}
		if resp, err = client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events"); err != nil {
			tb.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body) // the stream ends at the summary
		resp.Body.Close()
		if err != nil {
			tb.Fatal(err)
		}
		if resp, err = client.Get(ts.URL + "/v1/campaigns/" + st.ID); err != nil {
			tb.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			tb.Fatal(err)
		}
		return st
	}
}

// BenchmarkWarmCampaign is the service's warm path over HTTP, as a
// client sees it: POST a Table 2 sweep (8 steps, 3 seeds) whose 21 jobs
// are all memory-tier hits, read its SSE stream to the summary, then GET
// the result. B/op and allocs/op count client and server together.
func BenchmarkWarmCampaign(b *testing.B) {
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc).Handler())
	defer ts.Close()
	campaign := warmCampaigner(b, http.DefaultClient, ts)
	campaign() // primes the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := campaign(); st.Status != "done" || st.Result.CacheHits != 21 {
			b.Fatalf("warm campaign: %s, %d of 21 cache hits", st.Status, st.Result.CacheHits)
		}
	}
}

// BenchmarkServerSoak serves b.N warm campaigns (BenchmarkWarmCampaign's)
// over HTTP after a warm-up that fills the job table and the server's
// finished campaigns, and reports the heap they leave behind as
// retained-B/campaign. It fails if the goroutine count grew, and, from
// 10 000 campaigns on (fewer weigh noise, not retention), above 1 KiB per
// campaign. CI runs it at 100 000:
//
//	go test -run '^$' -bench '^BenchmarkServerSoak$' -benchtime 100000x ./internal/campaign
func BenchmarkServerSoak(b *testing.B) {
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc).Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	campaign := warmCampaigner(b, client, ts)
	// quiesce closes the client's idle connections and waits for the
	// server's connection goroutines to go, then weighs the heap.
	quiesce := func() (heap uint64, goroutines int) {
		client.CloseIdleConnections()
		for prev := -1; goroutines != prev; time.Sleep(20 * time.Millisecond) {
			prev, goroutines = goroutines, gort.NumGoroutine()
		}
		heap, _ = settled()
		return heap, goroutines
	}
	for k := 0; k < terminalJobsKept/21+5; k++ {
		campaign()
	}
	heap0, g0 := quiesce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := campaign(); st.Status != "done" || st.Result.CacheHits != 21 {
			b.Fatalf("warm campaign: %s, %d of 21 cache hits", st.Status, st.Result.CacheHits)
		}
	}
	b.StopTimer()
	heap1, g1 := quiesce()
	perCampaign := (float64(heap1) - float64(heap0)) / float64(b.N)
	b.ReportMetric(perCampaign, "retained-B/campaign")
	if g1 > g0 {
		b.Fatalf("goroutines grew %d → %d over %d campaigns", g0, g1, b.N)
	}
	if b.N >= 10000 && perCampaign > 1<<10 {
		b.Fatalf("retained heap grows %.0f B per campaign over %d campaigns, want ≤ 1 KiB", perCampaign, b.N)
	}
}
