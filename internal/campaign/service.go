package campaign

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// Service errors.
var (
	// ErrQueueFull is returned by Submit when the job queue is at capacity:
	// backpressure is explicit rather than blocking the caller forever.
	ErrQueueFull = errors.New("campaign: job queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("campaign: service closed")
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent simulation workers
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// Submit returns ErrQueueFull beyond it (default 256).
	QueueDepth int
	// CacheBytes is the in-memory result-cache budget (default 256 MiB;
	// negative disables the memory tier).
	CacheBytes int64
	// CacheDir optionally persists results on disk, content-addressed by
	// job hash, so campaigns survive process restarts.
	CacheDir string
	// Recorder optionally receives service telemetry as obs events
	// (queue depth, counters for submissions/hits/misses/dedups), re-read
	// from the metric handles after every job transition. It is emitted
	// outside the service lock, serialized on a dedicated mutex, so a slow
	// recorder (or sink) can never stall Submit.
	Recorder *obs.Recorder
	// Metrics optionally registers the service's Prometheus metrics
	// (queue depth and capacity, worker busy-time, per-status job
	// counts, queue-wait and execute-latency histograms, cache hit/miss/
	// dedup counters, cached bytes). Nil keeps them in a private registry
	// that only Stats reads.
	Metrics *telemetry.Registry
	// Logger optionally receives structured service logs (job lifecycle
	// at debug, drops and rejects at warn).
	Logger *telemetry.Logger
	// Tracer optionally propagates distributed-trace spans through the
	// job lifecycle: every submission opens a job span (parented from the
	// submit context, so an HTTP request or campaign span becomes its
	// ancestor), with queue and execute child spans, and the DES run's
	// obs events bridged in as stage-level grandchildren. Nil disables
	// tracing at the cost of one nil check per site.
	Tracer *tracing.Tracer

	// JournalPath enables the write-ahead log: every job enqueue and
	// terminal state (and, via the HTTP server, every campaign) is
	// fsync'd there before the service acknowledges it, and NewService
	// replays the log — re-enqueueing every non-terminal job — so a
	// killed process resumes exactly where it stopped. Empty disables
	// journaling. Pair it with CacheDir so finished work replays as
	// cache hits instead of re-executing.
	JournalPath string
	// Retry is the transient-failure retry policy applied to every job
	// (zero value = no retries).
	Retry RetryPolicy
	// ExecDelay artificially stretches every execution by this duration
	// (cancellable). It exists for the chaos harness and load tests —
	// real jobs finish too fast to kill a process "mid-flight"
	// reliably — and is a no-op in production configurations.
	ExecDelay time.Duration

	// runFn overrides job execution (tests count real simulations with
	// it); it receives the spec and the hash admission computed for it and
	// reports how the run was served. Nil runs Service.defaultRun.
	runFn func(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error)
}

// The service's event broadcaster retains the newest eventHistory job
// events for replay (SSE reconnects, late subscribers) and drops a
// subscriber that falls eventBuffer events behind.
const (
	eventHistory = 4096
	eventBuffer  = 256
)

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = gort.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	c.Retry = c.Retry.normalized()
	// runFn's default is installed by NewService (Service.defaultRun): it
	// needs the service's World and metrics, which don't exist yet here.
	return c
}

// Service is the concurrent ensemble-evaluation engine: a bounded
// priority queue feeding a worker pool, fronted by a content-addressed
// result cache with singleflight deduplication. All methods are safe for
// concurrent use.
type Service struct {
	cfg     Config
	metrics serviceMetrics
	events  *Broadcaster
	log     *telemetry.Logger

	// world is the campaign's shared immutable simulation state: frozen
	// plans plus the recycled-environment arena. Every worker borrows
	// from it; it is created once in NewService and never replaced.
	world *runtime.World

	// journal is the write-ahead log (nil when Config.JournalPath is
	// empty); replayedCamps holds the campaigns that were open in it at
	// startup, for the HTTP server to resume.
	journal       *journal.Journal
	replayedCamps []journal.Record

	mu    sync.Mutex
	space *sync.Cond // signalled when queue slots free up
	work  *sync.Cond // signalled when work arrives
	queue jobQueue
	// admitting counts jobs claimed for the queue whose "queued" is still
	// being announced outside the lock; enqueue turns each into a push.
	admitting   int
	inflight    map[string]*Job      // hash -> queued, running or backed-off job
	jobs        map[string]*Job      // id -> every live job and the newest terminalJobsKept finished ones
	finished    []string             // IDs of the finished jobs still in jobs, oldest first
	retryTimers map[*Job]*time.Timer // jobs waiting out a retry backoff
	cache       *resultCache
	closed      bool
	seq         int64

	// fabric routes executions across the pool when set (see SetFabric).
	// remoteFlights is the owner-side singleflight for forwarded
	// executions, keyed by spec hash.
	fabric        Fabric
	remoteFlights map[string]*remoteFlight

	// acct holds the per-campaign and node resource ledgers (always
	// present; has its own locking).
	acct *accountant

	// mirrorMu serializes emissions onto Config.Recorder; it is never held
	// together with s.mu.
	mirrorMu sync.Mutex

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewService starts the worker pool. When Config.JournalPath is set it
// also opens (or recovers) the write-ahead log and synchronously replays
// it: every non-terminal job re-enters the queue — as a disk-cache hit
// when its result survived, as a fresh execution otherwise — before
// NewService returns. Callers must Close it.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.normalized()
	cache, err := newResultCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	var jnl *journal.Journal
	var replay journal.State
	if cfg.JournalPath != "" {
		jnl, replay, err = journal.Open(cfg.JournalPath, 0) // default compaction interval
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:           cfg,
		metrics:       newServiceMetrics(cfg.Metrics),
		log:           cfg.Logger,
		world:         runtime.NewWorld(),
		journal:       jnl,
		inflight:      make(map[string]*Job),
		jobs:          make(map[string]*Job),
		retryTimers:   make(map[*Job]*time.Timer),
		remoteFlights: make(map[string]*remoteFlight),
		acct:          newAccountant(),
		cache:         cache,
		baseCtx:       ctx,
		baseCancel:    cancel,
	}
	s.space = sync.NewCond(&s.mu)
	s.work = sync.NewCond(&s.mu)
	if s.cfg.runFn == nil {
		s.cfg.runFn = s.defaultRun
	}
	s.metrics.workers.Set(float64(cfg.Workers))
	s.metrics.queueCap.Set(float64(cfg.QueueDepth))
	if jnl != nil {
		jnl.OnAppend = func() { s.metrics.journalAppends.Inc() }
		jnl.OnCompact = func() { s.metrics.journalCompact.Inc() }
	}
	cache.onCorrupt = func(hash string, err error) {
		s.metrics.cacheCorrupt.Inc()
		s.log.Warn("evicted corrupt disk-cache entry",
			"hash", hash, "err", err.Error())
	}
	s.events = NewBroadcaster(eventHistory, eventBuffer)
	s.events.OnDrop = func() {
		s.metrics.subsDropped.Inc()
		s.log.Warn("event subscriber dropped for falling behind",
			"buffer", eventBuffer)
	}
	s.events.OnSubscribers = func(n int) { s.metrics.subscribers.Set(float64(n)) }
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if jnl != nil {
		s.replayedCamps = replay.Campaigns
		s.replayJournal(replay.Jobs)
		// Replay re-appended an enqueue record per pending job; fold the
		// log back to one snapshot so it never grows across restarts.
		if err := jnl.Compact(); err != nil {
			s.log.Warn("journal: post-replay compaction failed", "err", err.Error())
		}
		if st := jnl.Stats(); s.log.Enabled(telemetry.LevelInfo) &&
			(st.Replayed > 0 || st.TruncatedBytes > 0) {
			s.log.Info("journal replayed",
				"records", st.Replayed,
				"pendingJobs", len(replay.Jobs),
				"openCampaigns", len(replay.Campaigns),
				"truncatedBytes", st.TruncatedBytes)
		}
	}
	return s, nil
}

// replayJournal re-submits every non-terminal job recorded in the
// journal, in original admission order. Jobs whose results survived in
// the disk cache resolve instantly as cache hits (and get their terminal
// record); the rest re-execute. A job whose recorded spec no longer
// decodes or validates is failed in the journal rather than replayed
// forever.
func (s *Service) replayJournal(pending []journal.Record) {
	for _, rec := range pending {
		spec, err := decodeSpec(rec.Spec)
		if err == nil {
			_, err = s.submit(context.Background(), spec, SubmitOptions{
				Priority: rec.Priority,
				Label:    rec.Label,
				Campaign: rec.Campaign,
			}, true)
		}
		if err != nil {
			reason := "replay: " + err.Error()
			s.log.Warn("journal: dropping unreplayable job",
				"hash", rec.Hash, "reason", reason)
			if jerr := s.journal.Append(journal.Record{
				Type: journal.TypeTerminal, Hash: rec.Hash,
				Status: string(StatusFailed), Reason: reason,
			}); jerr != nil {
				s.log.Warn("journal: terminal append failed",
					"hash", rec.Hash, "err", jerr.Error())
			}
			continue
		}
		s.metrics.journalReplays.Inc()
	}
}

// Events returns the service's job-event broadcaster: every job
// transition publishes a JobEvent on it. The SSE endpoint subscribes here.
func (s *Service) Events() *Broadcaster { return s.events }

// Metrics returns the registry the service instruments (nil when
// telemetry is off); the HTTP server shares it for per-route metrics.
func (s *Service) Metrics() *telemetry.Registry { return s.cfg.Metrics }

// Logger returns the service's structured logger (nil when logging is
// off).
func (s *Service) Logger() *telemetry.Logger { return s.log }

// Tracer returns the service's tracer (nil when tracing is off); the
// HTTP server shares it for request spans and the span endpoints.
func (s *Service) Tracer() *tracing.Tracer { return s.cfg.Tracer }

// Journal returns the service's write-ahead log (nil when journaling is
// off); the HTTP server appends campaign records to it.
func (s *Service) Journal() *journal.Journal { return s.journal }

// ReplayedCampaigns returns the campaigns that were open in the journal
// when the service started, in admission order; the HTTP server resumes
// them. Empty without a journal or after a clean shutdown with no open
// campaigns.
func (s *Service) ReplayedCampaigns() []journal.Record {
	return append([]journal.Record(nil), s.replayedCamps...)
}

// Ready reports the conditions currently blocking readiness — empty when
// the service can accept new campaigns. GET /readyz surfaces it.
func (s *Service) Ready() []string {
	var blocked []string
	if s.isClosed() {
		blocked = append(blocked, "service closed")
	}
	if s.queueSaturated() {
		blocked = append(blocked, "job queue saturated")
	}
	if err := s.journal.Healthy(); err != nil {
		blocked = append(blocked, "journal unwritable: "+err.Error())
	}
	return blocked
}

// Close stops accepting submissions, cancels queued and running jobs, and
// waits for the workers to exit.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// Fail the queue: every queued job reports ErrClosed to its waiters.
	// Jobs waiting out a retry backoff are queued jobs too — stop their
	// timers so they fail now instead of resurrecting mid-shutdown. (A
	// timer that already fired loses the s.mu race here and finds its
	// map entry gone; enqueueRetry then does nothing.)
	queued := s.takeQueuedLocked()
	s.work.Broadcast()
	s.space.Broadcast()
	s.mu.Unlock()

	// A shutdown cancellation leaves no terminal journal record (see
	// transition), so everything unfinished stays pending in the log and
	// the next process resumes it.
	for _, j := range queued {
		s.transition(j, edge{to: stateCancelled, err: ErrClosed})
	}
	s.baseCancel()
	s.wg.Wait()
	s.events.Close()
	if err := s.journal.Close(); err != nil {
		s.log.Warn("journal: close failed", "err", err.Error())
	}
	if s.log.Enabled(telemetry.LevelInfo) {
		st := s.Stats()
		s.log.Info("campaign service closed",
			"completed", st.Completed, "failed", st.Failed,
			"cancelled", st.Cancelled)
	}
}

// SubmitOptions label and order a submission.
type SubmitOptions struct {
	// Priority orders the queue: higher-priority jobs run first; ties run
	// in submission order.
	Priority int
	// Label names the job in listings (defaults to the placement name).
	Label string
	// Campaign tags the job's events with a campaign ID so event-stream
	// subscribers can follow one campaign; RunCampaign sets it from
	// Sweep.Campaign.
	Campaign string
}

// Submit admits a job: served from the cache if its hash is known,
// attached to an identical in-flight job if one exists (singleflight),
// queued otherwise. Returns ErrQueueFull when the queue is at capacity —
// callers own their backpressure policy — and ErrClosed after Close.
func (s *Service) Submit(ctx context.Context, spec JobSpec, opts SubmitOptions) (*Job, error) {
	return s.submit(ctx, spec, opts, false)
}

// SubmitWait is Submit with blocking backpressure: instead of returning
// ErrQueueFull it waits for a queue slot (or ctx expiry). The campaign
// planner and the batch sweeps use it to fan out arbitrarily large
// expansions over the bounded queue.
func (s *Service) SubmitWait(ctx context.Context, spec JobSpec, opts SubmitOptions) (*Job, error) {
	return s.submit(ctx, spec, opts, true)
}

func (s *Service) submit(ctx context.Context, spec JobSpec, opts SubmitOptions, wait bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	return s.submitHashed(ctx, spec, hash, opts, wait)
}

// submitHashed is submit for a spec already validated and hashed: the
// campaign planner validates its specs when it expands the sweep and
// hashes each candidate's seeds together (specHashes).
func (s *Service) submitHashed(ctx context.Context, spec JobSpec, hash string, opts SubmitOptions, wait bool) (*Job, error) {
	if opts.Label == "" {
		opts.Label = spec.Placement.Name
	}
	// ctx cancellation must break SubmitWait out of its cond wait; a
	// watcher broadcasting on expiry keeps the wait honest.
	if wait {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.space.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	j, e, err := s.admit(ctx, spec, hash, opts, wait)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejectQueueFull()
		}
		return nil, err
	}
	s.metrics.submitted.Inc()
	switch e.to {
	case stateDone:
		s.transition(j, e)
	case stateQueued:
		s.enqueue(j)
	}
	return j, nil
}

// admit decides a submission's fate under s.mu, in tier order: a cached
// result (a new job plus the edge that finishes it), an identical
// in-flight job to share (singleflight; no edge), or a new job holding a
// queue slot plus the edge that queues it. The edge is taken by the
// caller after the lock is released.
func (s *Service) admit(ctx context.Context, spec JobSpec, hash string, opts SubmitOptions, wait bool) (*Job, edge, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, edge{}, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, edge{}, err
		}
		res, tier, shared, err := s.resolveLocked(hash)
		switch {
		case err != nil:
			return nil, edge{}, err
		case res != nil:
			return s.newJobLocked(ctx, spec, hash, opts, true), edge{to: stateDone, res: res, tier: tier}, nil
		case shared != nil:
			return shared, edge{}, nil
		case s.queuedLocked() < s.cfg.QueueDepth:
			j := s.newJobLocked(ctx, spec, hash, opts, false)
			s.inflight[hash] = j
			s.admitting++
			return j, edge{to: stateQueued}, nil
		case !wait:
			return nil, edge{}, ErrQueueFull
		}
		s.space.Wait()
	}
}

// resolveLocked answers hash from what the service already holds: a
// cached result and the tier it came from (a disk hit is admitted into
// the memory tier), or the identical in-flight job, counted as a dedup.
// All nil is a miss.
func (s *Service) resolveLocked(hash string) (*Result, string, *Job, error) {
	res, fromDisk, err := s.cache.get(hash)
	if err != nil || res != nil {
		tier := accounting.TierMemory
		if fromDisk {
			tier = accounting.TierDisk
			s.metrics.setCacheLocked(s.cache.stats())
		}
		return res, tier, nil, err
	}
	j := s.inflight[hash]
	if j != nil {
		s.metrics.dedups.Inc()
	}
	return nil, "", j, nil
}

// newJobLocked builds a job in stateNew and registers it under the next
// ID. Its root span parents from the submit context (an HTTP request or
// campaign span, in-process or remote via traceparent); a cache hit
// still leaves a (zero-queue, zero-execute) job span in the trace so
// campaigns with warm caches remain fully accounted for.
func (s *Service) newJobLocked(ctx context.Context, spec JobSpec, hash string, opts SubmitOptions, hit bool) *Job {
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("j-%d", s.seq),
		Hash:     hash,
		Label:    opts.Label,
		Priority: opts.Priority,
		CacheHit: hit,
		spec:     spec,
		campaign: opts.Campaign,
		ledger:   s.acct.campaign(opts.Campaign),
		seq:      s.seq,
		cancel:   func() {}, // a cache hit has nothing to abandon
		done:     make(chan struct{}),
		svc:      s,
	}
	if !hit {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	if s.cfg.Tracer != nil { // an untraced job builds no span name or attributes
		kind := tracing.Bool("job.cacheHit", true)
		if !hit {
			kind = tracing.Int("job.priority", opts.Priority)
		}
		_, j.span = s.cfg.Tracer.StartSpan(ctx, "job "+j.ID, "job",
			tracing.String("job.id", j.ID),
			tracing.String("job.hash", hash),
			tracing.String("job.label", opts.Label),
			kind)
	}
	s.jobs[j.ID] = j
	return j
}

// terminalJobsKept bounds how many finished jobs stay resolvable by ID
// (and so how many results the job table can pin): the newest this many.
// Queued, running and backed-off jobs are never evicted.
const terminalJobsKept = 4096

// retireLocked notes that the job with this ID finished, evicting the
// oldest finished job once more than terminalJobsKept are held.
func (s *Service) retireLocked(id string) {
	s.finished = append(s.finished, id)
	if len(s.finished) > terminalJobsKept {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Job looks up a job by ID: any live job, or one of the newest
// terminalJobsKept finished ones.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// queuedLocked counts the queue slots in use: jobs in the queue plus
// jobs admitted to it that are still being announced.
func (s *Service) queuedLocked() int { return len(s.queue.items) + s.admitting }

// queueSaturated reports whether the queue is at capacity right now — the
// HTTP layer's admission check for whole-campaign submissions.
func (s *Service) queueSaturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked() >= s.cfg.QueueDepth
}

// rejectQueueFull counts a queue-full rejection: Submit's own, or one
// made on the service's behalf by a front end (the HTTP server bounces
// whole campaigns with 503 when the queue is saturated).
func (s *Service) rejectQueueFull() { s.metrics.rejected.Inc() }
