package campaign

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// CampaignRequest is the body of POST /v1/campaigns: a Sweep, with the
// option of naming built-in placements instead of (or in addition to)
// inlining them. Configs accepts paper names ("C1.5") and the shortcuts
// "table2", "table2x2", "table4" for whole tables.
type CampaignRequest struct {
	Sweep
	Configs []string `json:"configs,omitempty"`
}

// resolve expands Configs into Sweep.Placements (built-ins first, inline
// placements after, matching the order the request lists them).
func (r CampaignRequest) resolve() (Sweep, error) {
	sw := r.Sweep
	var resolved []placement.Placement
	for _, name := range r.Configs {
		switch name {
		case "table2":
			resolved = append(resolved, placement.ConfigsTable2()...)
		case "table2x2":
			resolved = append(resolved, placement.ConfigsTable2TwoMember()...)
		case "table4":
			resolved = append(resolved, placement.ConfigsTable4()...)
		default:
			p, ok := placement.ByName(name)
			if !ok {
				return Sweep{}, fmt.Errorf("campaign: unknown config %q", name)
			}
			resolved = append(resolved, p)
		}
	}
	sw.Placements = append(resolved, sw.Placements...)
	return sw, nil
}

// CampaignStatus is the wire form of a campaign's state, returned by the
// campaign endpoints.
type CampaignStatus struct {
	// ID identifies the campaign within the server ("c-1").
	ID string `json:"id"`
	// Name echoes the request name.
	Name string `json:"name,omitempty"`
	// Status is "running", "done" or "failed".
	Status string `json:"status"`
	// Done and Total report job-level progress.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure of a failed campaign.
	Error string `json:"error,omitempty"`
	// Result is present once the campaign is done.
	Result *CampaignResult `json:"result,omitempty"`
}

// campaignRun tracks one asynchronous RunCampaign.
type campaignRun struct {
	id   string
	name string
	done chan struct{}
	// eventsAfter is the event stream's sequence number when the run was
	// created: all of the campaign's events are above it.
	eventsAfter int64

	mu     sync.Mutex
	nDone  int
	nTotal int
	result *CampaignResult
	err    error
}

func (c *campaignRun) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{ID: c.id, Name: c.name, Status: "running", Done: c.nDone, Total: c.nTotal}
	select {
	case <-c.done:
		if c.err != nil {
			st.Status = "failed"
			st.Error = c.err.Error()
		} else {
			st.Status = "done"
			st.Result = c.result
		}
	default:
	}
	return st
}

// Server exposes a Service over HTTP: campaign submission and polling,
// per-job Perfetto trace download, and the service's cache/queue counters.
// Build one with NewServer and mount its Handler.
type Server struct {
	svc *Service
	log *telemetry.Logger

	// Per-route request counters and latency histograms, registered on
	// the service's registry (no-ops when telemetry is off).
	requests *telemetry.CounterVec
	latency  *telemetry.HistogramVec

	// draining fails readiness (and new campaign POSTs) while in-flight
	// work finishes — set on SIGTERM for graceful rollouts.
	draining atomic.Bool

	mu        sync.Mutex
	seq       int64
	campaigns map[string]*campaignRun
	// finished holds the finished campaigns still in campaigns, oldest
	// first, and finishedJobs the sum of their job counts (see retire).
	finished     []finishedRun
	finishedJobs int

	// readyChecks are extra readiness gates (e.g. the pool's join state)
	// consulted by /readyz; each returns the reasons it is blocking.
	readyChecks []func() []string
}

// NewServer wraps a service. The server does not own the service; closing
// is the caller's job. It shares the service's metrics registry and
// logger, so one scrape covers both tiers.
func NewServer(svc *Service) *Server {
	reg := svc.Metrics()
	return &Server{
		svc: svc,
		log: svc.Logger(),
		requests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		latency: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request latency, by route pattern.", nil, "route"),
		campaigns: make(map[string]*campaignRun),
	}
}

// Handler returns the route table:
//
//	POST /v1/campaigns             submit a sweep, returns 202 + campaign status
//	GET  /v1/campaigns             list campaigns
//	GET  /v1/campaigns/{id}        poll one campaign (result once done)
//	GET  /v1/campaigns/{id}/events live SSE stream of job transitions
//	GET  /v1/campaigns/{id}/accounting the campaign's resource ledger
//	GET  /v1/jobs/{id}               one job's status
//	GET  /v1/jobs/{id}/trace         Perfetto (Chrome JSON) trace of a done job
//	GET  /v1/jobs/{id}/spans         the job's distributed-trace spans (OTLP JSON)
//	GET  /v1/jobs/{id}/critical-path the job's trace critical path
//	GET  /v1/stats                   service counters incl. cache hit rate
//
// Every route is instrumented with per-route request counts and latency
// histograms on the service's metrics registry, and — when the service
// has a tracer — a server span per request, continuing an incoming W3C
// traceparent when the client sends one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/campaigns", s.postCampaign)
	handle("GET /v1/campaigns", s.listCampaigns)
	handle("GET /v1/campaigns/{id}", s.getCampaign)
	handle("GET /v1/campaigns/{id}/events", s.streamCampaign)
	handle("GET /v1/campaigns/{id}/accounting", s.getCampaignAccounting)
	handle("GET /v1/jobs/{id}", s.getJob)
	handle("GET /v1/jobs/{id}/trace", s.getJobTrace)
	handle("GET /v1/jobs/{id}/spans", s.getJobSpans)
	handle("GET /v1/jobs/{id}/critical-path", s.getJobCriticalPath)
	handle("GET /v1/stats", s.getStats)
	handle("GET /healthz", s.getHealthz)
	handle("GET /readyz", s.getReadyz)
	return mux
}

// getHealthz serves liveness: 200 whenever the process is up and able to
// answer HTTP at all.
func (s *Server) getHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// getReadyz serves readiness: 200 when the service can accept new
// campaigns, 503 with the blocking reasons otherwise (draining for
// shutdown, saturated queue, closed service, unwritable journal).
func (s *Server) getReadyz(w http.ResponseWriter, _ *http.Request) {
	var blocked []string
	if s.draining.Load() {
		blocked = append(blocked, "draining")
	}
	blocked = append(blocked, s.svc.Ready()...)
	s.mu.Lock()
	checks := append([]func() []string(nil), s.readyChecks...)
	s.mu.Unlock()
	for _, check := range checks {
		blocked = append(blocked, check()...)
	}
	if len(blocked) > 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "unavailable", "reasons": blocked})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// SetDraining marks the server as draining (or not): readiness fails so
// load balancers stop routing new work, and campaign POSTs are rejected,
// while everything already admitted keeps running to completion.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// AddReadyCheck registers an extra readiness gate consulted by /readyz
// (e.g. "pool: join pending" while a node has not reached its seeds).
// The check returns the reasons it is blocking, or nil when ready.
func (s *Server) AddReadyCheck(check func() []string) {
	s.mu.Lock()
	s.readyChecks = append(s.readyChecks, check)
	s.mu.Unlock()
}

// instrument wraps a handler with per-route telemetry and a server span.
// The wrapper preserves http.Flusher so the SSE route still streams. An
// incoming `traceparent` header joins the request to the caller's trace;
// the response carries the server span's own traceparent so clients can
// fetch the spans they just caused.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if tr := s.svc.Tracer(); tr != nil {
			ctx := r.Context()
			if remote, err := tracing.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
				ctx = tracing.ContextWithRemote(ctx, remote)
			}
			ctx, span := tr.StartSpan(ctx, r.Method+" "+r.URL.Path, "server",
				tracing.String("http.method", r.Method),
				tracing.String("http.route", pattern),
				tracing.String("http.target", r.URL.Path))
			w.Header().Set("traceparent", span.Context().Traceparent())
			r = r.WithContext(ctx)
			defer func() {
				span.SetAttr(tracing.Int("http.status_code", sw.code))
				if sw.code >= 500 {
					span.SetStatus(true, http.StatusText(sw.code))
				}
				span.End()
			}()
		}
		h(sw, r)
		s.requests.With(pattern, strconv.Itoa(sw.code)).Inc()
		s.latency.With(pattern).Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it streams; SSE needs it.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON writes v as a compact JSON response (DESIGN.md §10:
// indentation is not part of the wire).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxCampaignBody bounds a POST /v1/campaigns body (DESIGN.md §10): a
// Table 2 request is ~50 B and a 64-seed inline sweep a few KB.
const maxCampaignBody = 1 << 20

func (s *Server) postCampaign(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable,
			errors.New("campaign: server draining for shutdown"))
		return
	}
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCampaignBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("campaign: request body over the %d-byte bound", tooLarge.Limit)
		}
		httpError(w, code, err)
		return
	}
	sw, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Expand once, here: a malformed sweep fails the POST, not the poll,
	// and the runner aggregates these very candidates.
	cands, err := sw.Jobs()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errOverBound) {
			code = http.StatusUnprocessableEntity
		}
		httpError(w, code, err)
		return
	}

	// Admission control: a saturated queue means the campaign would only
	// sit in SubmitWait; shed the load instead so the client can back off
	// and retry, and account the rejection.
	if s.svc.queueSaturated() {
		s.svc.rejectQueueFull()
		s.log.Warn("campaign rejected: queue full", "jobs", countJobs(cands))
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, ErrQueueFull)
		return
	}

	run := s.register("", sw.Name, cands)

	// Journal the campaign (with its original request, so a restart can
	// re-expand it) before acknowledging the POST.
	if jnl := s.svc.Journal(); jnl != nil {
		reqJSON, jerr := json.Marshal(req)
		if jerr == nil {
			jerr = jnl.Append(journal.Record{
				Type: journal.TypeCampaign, ID: run.id,
				Name: sw.Name, Request: reqJSON,
			})
		}
		if jerr != nil {
			s.log.Warn("journal: campaign append failed",
				"campaign", run.id, "err", jerr.Error())
		}
	}

	s.launch(run, sw, cands, r.Context())
	writeJSON(w, http.StatusAccepted, run.status())
}

// register files a new run for an expanded sweep under id — or, when id
// is "", under the next fresh "c-N" — and returns it; nil means a run
// with that ID already exists. An explicit ID (a resumed campaign)
// advances the sequence past it, so new campaigns never collide.
func (s *Server) register(id, name string, cands []Candidate) *campaignRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		s.seq++
		id = fmt.Sprintf("c-%d", s.seq)
	} else if _, exists := s.campaigns[id]; exists {
		return nil
	} else if n := campaignIDNum(id); n > s.seq {
		s.seq = n
	}
	run := &campaignRun{
		id:          id,
		name:        name,
		done:        make(chan struct{}),
		eventsAfter: s.svc.Events().Seq(),
		nTotal:      countJobs(cands),
	}
	s.campaigns[id] = run
	return run
}

// launch starts the campaign runner goroutine shared by postCampaign and
// Resume. The campaign span is a child of parent (the POST's server span,
// or a root span on resume) but outlives it: it rides a detached context
// into the runner and closes when the campaign resolves, parenting every
// job span the sweep submits. When the campaign resolves it is retired
// from the journal — unless the service is shutting down, in which case
// it stays open in the log so the next process resumes it.
func (s *Server) launch(run *campaignRun, sw Sweep, cands []Candidate, parent context.Context) {
	total := run.nTotal
	sw.Campaign = run.id // tag every job's events for the SSE stream
	sw.Progress = func(done, total int) {
		run.mu.Lock()
		run.nDone, run.nTotal = done, total
		run.mu.Unlock()
	}
	_, campSpan := s.svc.Tracer().StartSpan(parent,
		"campaign "+run.id, "campaign",
		tracing.String("campaign.id", run.id),
		tracing.String("campaign.name", sw.Name),
		tracing.Int("campaign.jobs", total))
	runCtx := tracing.ContextWithSpan(context.Background(), campSpan)
	clog := s.log.WithTrace(campSpan.TraceID(), campSpan.SpanID())
	clog.Info("campaign accepted", "campaign", run.id, "name", sw.Name, "jobs", total)
	go func() {
		start := time.Now()
		res, err := runCandidates(runCtx, s.svc, sw, cands)
		if res != nil {
			// The per-seed specs and results fed submission and the
			// aggregation and never reach the wire; a campaign's permanent
			// record must not pin them.
			for i := range res.Candidates {
				res.Candidates[i].Specs = nil
				res.Candidates[i].Results = nil
			}
		}
		run.mu.Lock()
		run.result, run.err = res, err
		jobs := run.nTotal
		run.mu.Unlock()
		close(run.done)
		campSpan.SetError(err)
		campSpan.End()
		if jnl := s.svc.Journal(); jnl != nil && !s.svc.isClosed() {
			status := "done"
			if err != nil {
				status = "failed"
			}
			if jerr := jnl.Append(journal.Record{
				Type: journal.TypeCampaignDone, ID: run.id, Status: status,
			}); jerr != nil {
				s.log.Warn("journal: campaign-done append failed",
					"campaign", run.id, "err", jerr.Error())
			}
		}
		if err != nil {
			clog.Error("campaign failed", "campaign", run.id, "err", err.Error(),
				"elapsedSec", time.Since(start).Seconds())
		} else {
			clog.Info("campaign done", "campaign", run.id, "jobs", res.Jobs,
				"cacheHits", res.CacheHits, "failedJobs", res.Failed,
				"elapsedSec", time.Since(start).Seconds())
		}
		s.retire(run.id, jobs)
	}()
}

// finishedRun is one entry of the server's finished-campaign queue.
type finishedRun struct {
	id   string
	jobs int
}

// retire queues a finished campaign and evicts the oldest finished ones
// while more than one is held and their jobs together exceed
// terminalJobsKept: a finished campaign stays resolvable as long as the
// job table could still hold its jobs. Eviction drops the run and its
// ledger in one step, so an evicted ID is unknown to every endpoint
// (404), as after a restart. Running campaigns are never queued here, so
// never evicted.
func (s *Server) retire(id string, jobs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, finishedRun{id, jobs})
	s.finishedJobs += jobs
	for len(s.finished) > 1 && s.finishedJobs > terminalJobsKept {
		old := s.finished[0]
		s.finished = s.finished[1:]
		s.finishedJobs -= old.jobs
		delete(s.campaigns, old.id)
		s.svc.forgetCampaign(old.id)
	}
}

// Resume relaunches every campaign that was open in the service's
// journal at startup, returning how many it restarted. Job-level resume
// already happened inside NewService — pending jobs are back in the
// queue, finished ones are disk-cache hits — so a resumed campaign's
// re-submitted sweep coalesces onto that work through the cache and
// singleflight instead of re-executing it. Campaign IDs are preserved
// across the restart (clients polling /v1/campaigns/{id} keep working),
// and the server's ID sequence advances past them so new campaigns never
// collide. A recorded campaign that no longer expands (renamed config,
// undecodable request) is retired from the journal as failed rather than
// replayed forever.
func (s *Server) Resume() int {
	resumed := 0
	for _, rec := range s.svc.ReplayedCampaigns() {
		var req CampaignRequest
		err := json.Unmarshal(rec.Request, &req)
		var sw Sweep
		if err == nil {
			sw, err = req.resolve()
		}
		var cands []Candidate
		if err == nil {
			cands, err = sw.Jobs()
		}
		if err != nil {
			s.log.Warn("journal: dropping unreplayable campaign",
				"campaign", rec.ID, "err", err.Error())
			if jerr := s.svc.Journal().Append(journal.Record{
				Type: journal.TypeCampaignDone, ID: rec.ID, Status: "failed",
			}); jerr != nil {
				s.log.Warn("journal: campaign-done append failed",
					"campaign", rec.ID, "err", jerr.Error())
			}
			continue
		}
		run := s.register(rec.ID, sw.Name, cands)
		if run == nil {
			continue
		}
		s.launch(run, sw, cands, context.Background())
		resumed++
	}
	if resumed > 0 {
		s.log.Info("campaigns resumed from journal", "campaigns", resumed)
	}
	return resumed
}

// campaignIDNum extracts the numeric suffix of a "c-N" campaign ID
// (0 when the ID has another shape).
func campaignIDNum(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "c-%d", &n); err != nil {
		return 0
	}
	return n
}

// CampaignSummary is the terminal event of an SSE stream: the campaign's
// final state plus its headline result.
type CampaignSummary struct {
	// Campaign identifies the run ("c-1"); Name echoes the sweep name.
	Campaign string `json:"campaign"`
	Name     string `json:"name,omitempty"`
	// Status is "done" or "failed".
	Status string `json:"status"`
	// Jobs counts submitted jobs; CacheHits and FailedJobs partition the
	// interesting outcomes.
	Jobs       int `json:"jobs"`
	CacheHits  int `json:"cacheHits"`
	FailedJobs int `json:"failedJobs"`
	// Best is the top-ranked candidate label and Objective its
	// F(P^{U,A,P}) — the paper's Eq. 9 winner — when any candidate
	// survived.
	Best      string  `json:"best,omitempty"`
	Objective float64 `json:"objective,omitempty"`
	// Failures lists the campaign's failed or cancelled jobs with their
	// human-readable reasons.
	Failures []JobFailure `json:"failures,omitempty"`
	// Error carries the failure of a failed campaign.
	Error string `json:"error,omitempty"`
}

// summary builds the terminal SSE event from a finished run.
func (c *campaignRun) summary() CampaignSummary {
	st := c.status()
	out := CampaignSummary{
		Campaign: c.id,
		Name:     c.name,
		Status:   st.Status,
		Error:    st.Error,
	}
	if st.Result != nil {
		out.Jobs = st.Result.Jobs
		out.CacheHits = st.Result.CacheHits
		out.FailedJobs = st.Result.Failed
		out.Failures = st.Result.Failures
		if len(st.Result.Ranking) > 0 {
			out.Best = st.Result.Ranking[0].Name
			out.Objective = st.Result.Ranking[0].Value
		}
	}
	return out
}

// streamCampaign serves GET /v1/campaigns/{id}/events: a server-sent-
// events stream pushing one `job` event per job state transition (queued,
// running, done/cached/failed/cancelled) and a terminal `summary` event
// once the campaign resolves. The subscription is scoped to the campaign
// inside the broadcaster, which replays the campaign's retained history
// first, so connecting right after the POST loses nothing; a subscriber
// that cannot keep up with its own campaign is dropped (`error` event)
// rather than ever blocking the workers. Every job event carries its
// broadcaster sequence number as the SSE `id:`, and a reconnecting
// client's `Last-Event-ID` header scopes the stream to events it has
// not yet seen — the standard SSE resume handshake, bounded by the
// broadcaster's history ring (events evicted before the reconnect are
// gone; the client detects the gap from the sequence numbers).
func (s *Server) streamCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("campaign: streaming unsupported"))
		return
	}
	after := run.eventsAfter
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = max(after, n)
		}
	}

	replay, ch, cancel := s.svc.Events().SubscribeCampaign(id, after)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	// Each event is built in buf and written to w, which buffers; the
	// stream flushes once per batch — the replay, then every live event
	// already waiting — so a batch costs one write to the client.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// write appends one event; false means the client went away.
	write := func(id int64, event string, v any) bool {
		buf.Reset()
		if id > 0 {
			buf.WriteString("id: ")
			buf.Write(strconv.AppendInt(buf.AvailableBuffer(), id, 10))
			buf.WriteByte('\n')
		}
		buf.WriteString("event: ")
		buf.WriteString(event)
		buf.WriteString("\ndata: ")
		if err := enc.Encode(v); err != nil {
			return true // unencodable: skip the event, keep the stream
		}
		buf.WriteByte('\n') // Encode ended the data line; a blank line ends the event
		_, err := w.Write(buf.Bytes())
		return err == nil
	}
	// pending writes every event already buffered on ch; closed reports
	// that ch was closed, ok that the client is still there.
	pending := func() (closed, ok bool) {
		for {
			select {
			case ev, open := <-ch:
				if !open {
					return true, true
				}
				if !write(ev.Seq, "job", ev) {
					return false, false
				}
			default:
				return false, true
			}
		}
	}

	for i := range replay {
		if !write(replay[i].Seq, "job", &replay[i]) {
			return
		}
	}
	for {
		fl.Flush()
		select {
		case ev, open := <-ch:
			closed := !open
			if open {
				if !write(ev.Seq, "job", ev) {
					return
				}
				var ok bool
				if closed, ok = pending(); !ok {
					return
				}
			}
			if closed {
				// Dropped for falling behind, or the service closed; the
				// client reconnects and replays from history.
				write(0, "error", map[string]string{
					"error": "event stream dropped (subscriber too slow or service closing)",
				})
				fl.Flush()
				return
			}
		case <-run.done:
			// Every job event was published before the campaign resolved;
			// write whatever is still buffered, then summarize.
			if _, ok := pending(); ok && write(0, "summary", run.summary()) {
				fl.Flush()
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) listCampaigns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*campaignRun, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		runs = append(runs, c)
	}
	s.mu.Unlock()
	slices.SortFunc(runs, func(a, b *campaignRun) int { return idCompare(a.id, b.id) })
	out := make([]CampaignStatus, 0, len(runs))
	for _, c := range runs {
		st := c.status()
		st.Result = nil // listings stay light; poll the campaign for the result
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// idCompare orders campaign IDs by numeric suffix: shorter first, then
// lexicographic ("c-2" before "c-10").
func idCompare(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}

func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run, ok := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

// campaignAccounting is the wire form of GET /v1/campaigns/{id}/
// accounting: the campaign's ledger snapshot. Field order (campaign,
// then the snapshot's declaration order) is stable; the simulated
// section is byte-identical across identical runs.
type campaignAccounting struct {
	Campaign string `json:"campaign"`
	accounting.Snapshot
}

// getCampaignAccounting serves the campaign's resource ledger: simulated
// core-seconds spent (busy/idle per component class) and avoided (per
// serving tier), plus the wall-clock cost. Available while the campaign
// is still running — the ledger grows as jobs resolve.
func (s *Server) getCampaignAccounting(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Both lookups under s.mu: retire drops the run and the ledger under
	// it, so an evicting campaign is never read as known with no ledger.
	s.mu.Lock()
	_, known := s.campaigns[id]
	l, has := s.svc.acct.lookup(id)
	s.mu.Unlock()
	if !known && !has {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", id))
		return
	}
	out := campaignAccounting{Campaign: id}
	if has {
		out.Snapshot = l.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	Label    string `json:"label,omitempty"`
	Status   Status `json:"status"`
	CacheHit bool   `json:"cacheHit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Reason is the human-readable cause of a failed or cancelled job.
	Reason string `json:"reason,omitempty"`
	// TraceID is the job's distributed-trace ID (hex); clients feed it to
	// the /spans and /critical-path endpoints or an external trace UI.
	TraceID string `json:"traceId,omitempty"`
	// Node is the pool node that executed (or is executing) the job;
	// empty on a single-node service.
	Node   string     `json:"node,omitempty"`
	Result *jobResult `json:"result,omitempty"`
}

// jobResult is the stored summary plus its indicator report, derived on read.
type jobResult struct {
	*Result
	Report indicators.Report `json:"report"`
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return
	}
	st := jobStatus{ID: j.ID, Hash: j.Hash, Label: j.Label, Status: j.Status(),
		CacheHit: j.CacheHit, Reason: j.Reason(), TraceID: j.TraceID(), Node: j.Node()}
	if res, err := j.Result(); err != nil {
		st.Error = err.Error()
	} else if res != nil {
		rep, err := indicators.FullReport(j.spec.Placement.Without(res.DroppedMembers), res.Efficiencies)
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("campaign: job %s: %w", j.ID, err))
			return
		}
		st.Result = &jobResult{Result: res, Report: rep}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) getJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return
	}
	tr, err := j.Trace()
	if err != nil {
		httpError(w, http.StatusConflict, fmt.Errorf("campaign: job %s failed: %w", j.ID, err))
		return
	}
	if tr == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("campaign: job %s has no trace yet", j.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", j.ID+"-trace.json"))
	// The trace, re-run from the spec, replays into obs events post hoc,
	// so it costs nothing unless somebody downloads it. When the job was
	// traced, the service-level spans (request, campaign, job, queue,
	// execute) merge into the export as their own process, mapped back
	// onto the virtual clock via the affine parameters the execute span
	// recorded.
	events := obs.FromTrace(tr)
	if tr := s.svc.Tracer(); tr != nil && j.span != nil {
		spans := tr.Store().Spans(j.span.Context().TraceID)
		if toVirtual := obs.InverseMap(spans, j.span.Context().SpanID); toVirtual != nil {
			_ = obs.WriteChromeTraceWithSpans(w, events, spans, toVirtual)
			return
		}
	}
	if err := obs.WriteChromeTrace(w, events); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// jobTraceSpans resolves a job and its trace's recorded spans, writing
// the error response when either is missing; ok reports success. The
// returned spans cover the whole trace — for a campaign-submitted job
// that includes the originating request and campaign spans and any
// sibling jobs sharing the trace.
func (s *Server) jobTraceSpans(w http.ResponseWriter, r *http.Request) (*Job, []tracing.SpanData, bool) {
	j, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return nil, nil, false
	}
	tr := s.svc.Tracer()
	if tr == nil || j.span == nil {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("campaign: job %s has no trace (tracing disabled)", j.ID))
		return nil, nil, false
	}
	spans := tr.Store().Spans(j.span.Context().TraceID)
	if len(spans) == 0 {
		httpError(w, http.StatusConflict,
			fmt.Errorf("campaign: job %s has no completed spans yet", j.ID))
		return nil, nil, false
	}
	return j, spans, true
}

// getJobSpans serves GET /v1/jobs/{id}/spans: every completed span of
// the job's trace as OTLP-shaped JSON (resourceSpans → scopeSpans →
// spans), importable by any OTLP-aware trace viewer, plus droppedSpans
// when the store's per-trace cap truncated the trace.
func (s *Server) getJobSpans(w http.ResponseWriter, r *http.Request) {
	j, spans, ok := s.jobTraceSpans(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tracing.WriteOTLP(w, "ensemblekit", spans, s.droppedSpans(j))
}

// droppedSpans returns how many spans the store dropped from j's trace.
func (s *Server) droppedSpans(j *Job) int {
	return s.svc.Tracer().Store().TraceDropped(j.span.Context().TraceID)
}

// getJobCriticalPath serves GET /v1/jobs/{id}/critical-path: the
// longest causal chain through the job's span subtree, with per-kind
// totals — the runtime analogue of the paper's per-stage time
// decomposition. The segment durations sum exactly to the job's
// end-to-end latency (gaps are attributed to the span they occur in).
func (s *Server) getJobCriticalPath(w http.ResponseWriter, r *http.Request) {
	j, spans, ok := s.jobTraceSpans(w, r)
	if !ok {
		return
	}
	switch j.Status() {
	case StatusDone, StatusFailed, StatusCancelled:
	default:
		httpError(w, http.StatusConflict,
			fmt.Errorf("campaign: job %s is %s; critical path needs a finished job", j.ID, j.Status()))
		return
	}
	cp, err := tracing.ComputeCriticalPath(spans, j.span.Context().SpanID)
	if err != nil {
		httpError(w, http.StatusConflict, fmt.Errorf("campaign: job %s: %w", j.ID, err))
		return
	}
	// Pair the wall-clock decomposition with the job's simulated
	// core-second ledger so one response answers both "where did the
	// latency go" and "what did it cost".
	resp := criticalPathResponse{CriticalPath: cp, DroppedSpans: s.droppedSpans(j)}
	if res, rerr := j.Result(); rerr == nil && res != nil {
		resp.Accounting = &res.Ledger
	}
	writeJSON(w, http.StatusOK, resp)
}

// criticalPathResponse decorates the critical path with the job's
// resource ledger (absent for failed jobs without a trace) and, when the
// store's per-trace cap truncated the trace, the number of spans the path
// was computed without.
type criticalPathResponse struct {
	*tracing.CriticalPath
	Accounting   *accounting.JobLedger `json:"accounting,omitempty"`
	DroppedSpans int                   `json:"droppedSpans,omitempty"`
}

// statsResponse decorates Stats with the derived hit rate.
type statsResponse struct {
	Stats
	HitRate float64 `json:"hitRate"`
}

func (s *Server) getStats(w http.ResponseWriter, _ *http.Request) {
	st := s.svc.Stats()
	writeJSON(w, http.StatusOK, statsResponse{Stats: st, HitRate: st.HitRate()})
}
