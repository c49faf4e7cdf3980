package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensemblekit/internal/campaign/journal"
)

var stateNames = [...]string{"new", "queued", "running", "backoff", "done", "failed", "cancelled"}

// TestTransitionTable drives a job to every state and then requests every
// state from there. The legal edges are exactly the documented lifecycle
// and apply once; every other edge is refused without a trace — no
// counter, event, journal record or done-channel close (a second close
// would panic).
func TestTransitionTable(t *testing.T) {
	legal := map[[2]jobState]bool{
		{stateNew, stateQueued}: true, {stateNew, stateDone}: true,
		{stateQueued, stateRunning}: true, {stateQueued, stateCancelled}: true,
		{stateRunning, stateBackoff}: true, {stateRunning, stateDone}: true,
		{stateRunning, stateFailed}: true, {stateRunning, stateCancelled}: true,
		{stateBackoff, stateQueued}: true, {stateBackoff, stateCancelled}: true,
	}
	// pathTo[s] is a legal walk from stateNew that ends in s.
	pathTo := map[jobState][]jobState{
		stateNew:       nil,
		stateQueued:    {stateQueued},
		stateRunning:   {stateQueued, stateRunning},
		stateBackoff:   {stateQueued, stateRunning, stateBackoff},
		stateDone:      {stateQueued, stateRunning, stateDone},
		stateFailed:    {stateQueued, stateRunning, stateFailed},
		stateCancelled: {stateQueued, stateCancelled},
	}
	spec := jobFor(t, 1)
	res, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	edgeTo := func(to jobState) edge {
		switch to {
		case stateDone:
			return edge{to: to, res: res, tier: "memory"}
		case stateFailed:
			return edge{to: to, err: errors.New("boom")}
		case stateCancelled:
			return edge{to: to, err: context.Canceled}
		case stateBackoff:
			return edge{to: to, err: errors.New("flaky"), backoff: time.Millisecond}
		}
		return edge{to: to}
	}

	// The jobs never enter the queue, so the worker leaves them alone and
	// the test owns every transition.
	svc, err := NewService(Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "journal.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	type surfaces struct {
		stats    Stats
		events   float64
		appended int64
		closed   bool
	}
	observe := func(j *Job) surfaces {
		s := surfaces{
			stats:    svc.Stats(),
			events:   svc.metrics.events.Value(),
			appended: svc.Journal().Stats().Appended,
		}
		select {
		case <-j.done:
			s.closed = true
		default:
		}
		return s
	}

	for from := stateNew; from <= stateCancelled; from++ {
		for to := stateNew; to <= stateCancelled; to++ {
			t.Run(stateNames[from]+"→"+stateNames[to], func(t *testing.T) {
				svc.mu.Lock()
				j := svc.newJobLocked(context.Background(), spec, res.Hash, SubmitOptions{}, false)
				svc.mu.Unlock()
				for _, step := range pathTo[from] {
					if !svc.transition(j, edgeTo(step)) {
						t.Fatalf("setup: could not reach %s (refused at %s)", stateNames[from], stateNames[step])
					}
				}
				before := observe(j)
				ok := svc.transition(j, edgeTo(to))
				after := observe(j)
				if ok != legal[[2]jobState{from, to}] {
					t.Fatalf("transition applied = %v, want %v", ok, !ok)
				}
				if !ok {
					if j.state != from {
						t.Errorf("refused edge moved the job to %s", stateNames[j.state])
					}
					if after != before {
						t.Errorf("refused edge left a trace:\nbefore %+v\n after %+v", before, after)
					}
					return
				}
				if j.state != to {
					t.Errorf("state = %s, want %s", stateNames[j.state], stateNames[to])
				}
				if after.events != before.events+1 {
					t.Errorf("published %v events, want 1", after.events-before.events)
				}
				if after.closed != to.terminal() {
					t.Errorf("done closed = %v on an edge into %s", after.closed, stateNames[to])
				}
				// Applied exactly once: the same request again is a no-op
				// (from a terminal state: anything is).
				if to != from && svc.transition(j, edgeTo(to)) {
					t.Errorf("edge applied twice")
				}
			})
		}
	}
}

// TestFinishedJobReleasesContext: the terminal edge cancels an executed
// job's run context, so a finished job leaves the service context's
// children instead of staying there for the life of the process, and the
// cancellation does not turn the finished job into a cancelled one.
func TestFinishedJobReleasesContext(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.CacheHit {
		t.Fatal("the job was a cache hit; it never had a run context")
	}
	if err := j.ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("finished job's context: %v, want %v", err, context.Canceled)
	}
	if err := svc.baseCtx.Err(); err != nil {
		t.Errorf("service context: %v, want live", err)
	}
	if res, err := j.Result(); j.Status() != StatusDone || res == nil || err != nil {
		t.Errorf("job %s: result %v, err %v; want done with its result", j.Status(), res != nil, err)
	}
}

// scrape renders the registry behind h and returns its samples keyed by
// the exposition's "name{labels}" spelling.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// journalRecords reads the write-ahead log's records ("crc payload" per
// line) without going through replay, which would reduce them away.
func journalRecords(t *testing.T, path string) []journal.Record {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var r journal.Record
		if err := json.Unmarshal(line[bytes.IndexByte(line, ' ')+1:], &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestLifecycleSurfacesAgree runs one job down every branch of the
// lifecycle — a miss, a hit, a dedup attach, a transient failure that
// succeeds on retry, a quarantine, a permanent failure and a submitter
// cancel — on a service with a journal, a registry and an event
// subscriber, and requires /v1/stats, the registry, the event stream and
// the journal to tell the same story.
func TestLifecycleSurfacesAgree(t *testing.T) {
	const (
		seedOK = iota + 1
		seedGated
		seedFlaky
		seedPoison
		seedBroken
		seedCancelled
	)
	gate := make(chan struct{})
	var flaky atomic.Int64
	cfg := retryConfig(3, func(_ context.Context, spec JobSpec) (*Result, error) {
		switch spec.Sim.Seed {
		case seedGated:
			<-gate
		case seedFlaky:
			if flaky.Add(1) == 1 {
				return nil, errors.New("transient fault")
			}
		case seedPoison:
			return nil, errors.New("always failing")
		case seedBroken:
			return nil, Permanent(errors.New("model bug"))
		}
		return Execute(spec)
	})
	walPath := filepath.Join(t.TempDir(), "journal.wal")
	cfg.JournalPath = walPath
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, events, unsubscribe := svc.Events().Subscribe()
	defer unsubscribe()

	ctx := context.Background()
	submit := func(seed int64) *Job {
		t.Helper()
		j, err := svc.Submit(ctx, jobFor(t, seed), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// The gated job holds the only worker while a second submission of it
	// attaches (dedup) and another job is cancelled in the queue behind it.
	gated := submit(seedGated)
	if again := submit(seedGated); again != gated {
		t.Fatal("identical in-flight submission was not shared")
	}
	cancelled := submit(seedCancelled)
	cancelled.Cancel()
	close(gate)
	jobs := []*Job{gated, cancelled, submit(seedOK), submit(seedFlaky), submit(seedPoison), submit(seedBroken)}
	for _, j := range jobs {
		<-j.done
	}
	hit := submit(seedOK)
	if !hit.CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	jobs = append(jobs, hit)

	// Surface 1: the event stream.
	byStatus := map[string]int64{}
	terminals := map[string]int{}
	for _, ev := range collect(t, events, len(jobs)) {
		byStatus[ev.Status]++
		if ev.Terminal() {
			terminals[ev.Job]++
		}
	}
	for _, j := range jobs {
		if terminals[j.ID] != 1 {
			t.Errorf("job %s published %d terminal events, want 1", j.ID, terminals[j.ID])
		}
	}

	// Surface 2: /v1/stats.
	api := httptest.NewRecorder()
	NewServer(svc).Handler().ServeHTTP(api, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(api.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	// Surface 3: the registry.
	prom := scrape(t, cfg.Metrics.Handler())

	// Surface 4: the journal.
	journaled := map[string]int64{}
	for _, r := range journalRecords(t, walPath) {
		journaled[r.Type+" "+r.Status]++
	}

	for _, c := range []struct {
		name                        string
		want, stat                  int64
		metric, event, journalEntry string // "" where the surface has no such line
	}{
		{"submitted", 8, st.Submitted, "campaign_submitted_total", "", ""},
		{"dedups", 1, st.Dedups, "campaign_dedup_total", "", ""},
		{"cache hits", 1, st.CacheHits, "campaign_cache_hits_total", EventCached, ""},
		{"cache misses", 6, st.CacheMisses, "campaign_cache_misses_total", "", "enqueue "},
		{"retries", 3, st.Retries, "campaign_job_retries_total", EventRetrying, ""},
		{"quarantined", 1, st.Quarantined, "campaign_jobs_quarantined_total", "", ""},
		{"completed", 3, st.Completed, `campaign_jobs_finished_total{status="done"}`, "done", "terminal done"},
		{"failed", 2, st.Failed, `campaign_jobs_finished_total{status="failed"}`, "failed", "terminal failed"},
		{"cancelled", 1, st.Cancelled, `campaign_jobs_finished_total{status="cancelled"}`, "cancelled", "terminal cancelled"},
		// Every attempt was picked up once; every miss and every retry was queued once.
		{"pickups", 8, 8, "campaign_queue_wait_seconds_count", "running", ""},
		{"queueings", 9, st.CacheMisses + st.Retries, "", "queued", ""},
		{"running now", 0, int64(st.Running), "campaign_running_jobs", "", ""},
		{"queued now", 0, int64(st.QueueDepth), "campaign_queue_depth", "", ""},
	} {
		if c.stat != c.want {
			t.Errorf("%s: /v1/stats says %d, want %d", c.name, c.stat, c.want)
		}
		if c.metric != "" && int64(prom[c.metric]) != c.want {
			t.Errorf("%s: registry %s = %v, want %d", c.name, c.metric, prom[c.metric], c.want)
		}
		if c.event != "" && byStatus[c.event] != c.want {
			t.Errorf("%s: %d %q events, want %d", c.name, byStatus[c.event], c.event, c.want)
		}
		if c.journalEntry != "" && journaled[c.journalEntry] != c.want {
			t.Errorf("%s: %d %q journal records, want %d", c.name, journaled[c.journalEntry], c.journalEntry, c.want)
		}
	}
	var published int64
	for _, n := range byStatus {
		published += n
	}
	if got := int64(prom["campaign_events_published_total"]); got != published {
		t.Errorf("campaign_events_published_total = %d, subscriber saw %d", got, published)
	}
}
