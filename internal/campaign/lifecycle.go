package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// Status is a job's lifecycle state as the API reports it.
type Status string

const (
	// StatusQueued marks a job waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning marks a job occupying a worker.
	StatusRunning Status = "running"
	// StatusDone marks a completed job with a result.
	StatusDone Status = "done"
	// StatusFailed marks a job whose execution returned an error.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job cancelled before completion.
	StatusCancelled Status = "cancelled"
)

// jobState is a job's position in the lifecycle:
//
//	new → queued → running → (backoff → queued → running)* → done | failed | cancelled
//	new → done                     a cache hit is born finished
//	queued | backoff → cancelled   submitter cancel, drain to a peer, shutdown
//
// Terminal states absorb. Every change of state goes through
// Service.transition, which is the only writer of Job.state.
type jobState uint8

const (
	stateNew     jobState = iota // built by submit, not yet announced
	stateQueued                  // admitted: in the queue, or about to be pushed
	stateRunning                 // occupying a worker
	stateBackoff                 // parked on a retry timer; "queued" on the wire
	stateDone
	stateFailed
	stateCancelled
)

// successors is the transition table: from → to is legal when bit to of
// successors[from] is set.
var successors = [stateCancelled + 1]uint8{
	stateNew:     1<<stateQueued | 1<<stateDone,
	stateQueued:  1<<stateRunning | 1<<stateCancelled,
	stateRunning: 1<<stateBackoff | 1<<stateDone | 1<<stateFailed | 1<<stateCancelled,
	stateBackoff: 1<<stateQueued | 1<<stateCancelled,
}

func (f jobState) canGo(to jobState) bool { return successors[f]&(1<<to) != 0 }

func (f jobState) terminal() bool { return f >= stateDone }

// wireStatus maps each state onto the API's vocabulary.
var wireStatus = [...]Status{
	stateNew: StatusQueued, stateQueued: StatusQueued, stateBackoff: StatusQueued,
	stateRunning: StatusRunning,
	stateDone:    StatusDone, stateFailed: StatusFailed, stateCancelled: StatusCancelled,
}

func (f jobState) status() Status { return wireStatus[f] }

// Job is a submitted evaluation. Wait for its result, Cancel to abandon
// it. Jobs returned for cache hits are already done; jobs returned for
// duplicate submissions are shared with the first submitter.
type Job struct {
	// ID identifies the job within the service ("j-17").
	ID string
	// Hash is the content address of the spec.
	Hash string
	// Label is the submitter's display label.
	Label string
	// Priority orders the queue (higher runs first).
	Priority int
	// CacheHit reports that the job was answered from the cache without
	// queueing.
	CacheHit bool

	spec     JobSpec
	campaign string // campaign tag for the event stream
	// ledger is the campaign's ledger, resolved when the job is created
	// (nil when untagged); charge writes to it, never to the map.
	ledger *accounting.Ledger
	seq    int64
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	svc    *Service
	// span is the root of the job's trace subtree (nil when the service has
	// no tracer); set at construction, so TraceID needs no lock.
	span *tracing.Span

	mu         sync.Mutex
	state      jobState
	attempts   int // completed retries under the retry policy
	enqueuedAt time.Time
	startedAt  time.Time
	result     *Result
	err        error
	reason     string // human cause for failed/cancelled jobs
	node       string // pool node that executed the job ("" before routing)
	servedVia  string // how the result arrived (servedLocal/servedFleet/servedForward)
	// queueSpan covers enqueue (or retry backoff) → pickup, execSpan
	// pickup → end of the attempt.
	queueSpan *tracing.Span
	execSpan  *tracing.Span
}

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.status()
}

// Result returns the result and error of a finished job (nil, nil while
// the job is still pending).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Trace returns a finished job's trace: a re-run of its spec through the
// service's World — byte-identical to the worker's run and charged to no
// ledger. (nil, nil) while the job is pending; a failed job returns its
// error.
func (j *Job) Trace() (*trace.EnsembleTrace, error) {
	if res, err := j.Result(); err != nil || res == nil {
		return nil, err
	}
	tr, _, err := runSpec(j.spec, nil, j.svc.world)
	return tr, err
}

// Wait blocks until the job finishes or ctx is done. A ctx expiry leaves
// the job running (other waiters may still want it); use Cancel to
// abandon the work itself.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel abandons the job: a queued job is removed from the queue, a
// running job's result is discarded when the worker returns (the
// cooperative simulation itself is not interruptible mid-run). Cancelled
// jobs never enter the cache. Cancelling a shared (deduplicated) job
// cancels it for every submitter.
func (j *Job) Cancel() {
	j.cancel()
	j.svc.dropQueued(j)
}

// Spec returns the job's spec.
func (j *Job) Spec() JobSpec { return j.spec }

// TraceID returns the hex trace ID of the trace the job belongs to, or
// "" when the service runs untraced.
func (j *Job) TraceID() string { return j.span.TraceID() }

// SpanID returns the hex span ID of the job's root span, or "".
func (j *Job) SpanID() string { return j.span.SpanID() }

// Reason returns the human-readable cause of a failed or cancelled
// job ("cancelled by submitter", "service shutdown", the worker error,
// ...); empty while pending and on success.
func (j *Job) Reason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reason
}

// Node returns the ID of the pool node the job ran on (or is running
// on); "" on a fabric-less service or before routing resolved.
func (j *Job) Node() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node
}

func (j *Job) setNode(id string) {
	j.mu.Lock()
	j.node = id
	j.mu.Unlock()
}

func (j *Job) setServed(via string) {
	j.mu.Lock()
	j.servedVia = via
	j.mu.Unlock()
}

// edge is one requested state change plus what the target state needs.
type edge struct {
	to  jobState
	res *Result // → done
	err error   // → failed, cancelled, backoff: the cause
	// tier names the cache tier that answered a new → done hit; info says
	// how a running → done local execution was served.
	tier string
	info runtime.RunInfo
	// quarantined marks a → failed that exhausted the retry budget.
	quarantined bool
	// backoff is the delay a → backoff waits before re-entering the queue.
	backoff time.Duration
}

// transition moves j along e and performs everything that follows from
// the move, in one fixed order: (1) the job and its spans under j.mu,
// (2) metrics, (3) the ledger, (4) the journal, (5) the singleflight and
// job tables under s.mu, (6) the event stream, (7) the Config.Recorder
// mirror, (8) the log, (9) the done channel. An edge the table does not
// allow is refused before step 1 has any effect, which is what makes
// terminal states absorbing and every outcome published exactly once.
// Because a terminal edge closes done last, a waiter that wakes up finds
// the journal record written and the event published.
//
// Callers must not hold s.mu: steps 4 and 7 may block (an fsync, a slow
// recorder sink) and must not stall admission.
func (s *Service) transition(j *Job, e edge) bool {
	now := time.Now()
	reason := s.reasonFor(e.err, e.to) // "" unless e.to is a failure or a cancellation
	ev := JobEvent{
		Time: now, Campaign: j.campaign, Job: j.ID, Hash: j.Hash, Label: j.Label,
		Status: string(e.to.status()), CacheHit: j.CacheHit,
	}

	j.mu.Lock()
	from := j.state
	if !from.canGo(e.to) {
		j.mu.Unlock()
		return false
	}
	j.state = e.to
	// An attempt that ends here (running → anything) is charged its wall
	// time; no other edge has latencies to report.
	var waitSec, execSec float64
	if from == stateRunning {
		waitSec = j.startedAt.Sub(j.enqueuedAt).Seconds()
		execSec = now.Sub(j.startedAt).Seconds()
	}
	switch e.to {
	case stateQueued:
		j.enqueuedAt = now // after a backoff: waitSec measures queue time only
		if from == stateNew {
			j.queueSpan = s.childSpan(j, "queue", "queue")
		}
	case stateRunning:
		j.startedAt = now
		ev.WaitSec = now.Sub(j.enqueuedAt).Seconds()
		j.queueSpan.SetAttr(tracing.Float("waitSec", ev.WaitSec))
		j.queueSpan.EndAt(now)
		j.execSpan = s.childSpan(j, "execute", "execute")
		if j.attempts > 0 {
			j.execSpan.SetAttr(tracing.Int("retry.attempt", j.attempts))
		}
	case stateBackoff:
		j.attempts++
		j.execSpan.SetError(e.err)
		j.execSpan.EndAt(now)
		// The backoff wait gets its own queue-kind span so retries read as
		// attempt → backoff → attempt chains in the trace.
		j.queueSpan = s.childSpan(j, fmt.Sprintf("retry-backoff %d", j.attempts), "queue",
			tracing.Int("retry.attempt", j.attempts),
			tracing.Float("backoffSec", e.backoff.Seconds()))
		ev.Status = EventRetrying
		ev.Error = e.err.Error()
		ev.Reason = fmt.Sprintf("retry %d/%d", j.attempts, s.cfg.Retry.MaxAttempts-1)
		ev.BackoffSec = e.backoff.Seconds()
	default: // terminal
		j.result, j.err, j.reason = e.res, e.err, reason
		ev.WaitSec, ev.ExecSec = waitSec, execSec
		// Close the span subtree: a never-picked-up job still holds an open
		// queue span, an abandoned run an open execute span. The root span
		// absorbs the terminal status and the objective.
		if e.err != nil {
			ev.Error, ev.Reason = e.err.Error(), reason
			j.execSpan.SetError(e.err)
			j.span.SetStatus(true, reason)
		}
		j.execSpan.EndAt(now)
		j.queueSpan.EndAt(now)
		j.span.SetAttr(tracing.String("job.status", ev.Status))
		if e.res != nil {
			ev.Objective = e.res.Objective
			j.span.SetAttr(tracing.Float("job.objective", e.res.Objective))
		}
		j.span.EndAt(now)
		if from == stateNew {
			ev.Status = EventCached
		}
	}
	ev.Attempt = j.attempts
	ev.Node = j.node
	served := j.servedVia
	j.mu.Unlock()

	m := &s.metrics
	if from == stateRunning {
		m.running.Add(-1)
	}
	switch {
	case from == stateNew && e.to == stateQueued:
		m.cacheMisses.Inc()
	case from == stateNew: // → done
		m.cacheHits.Inc()
		if e.tier == accounting.TierDisk {
			m.diskHits.Inc()
		}
	case e.to == stateRunning:
		m.running.Add(1)
		m.queueWait.Observe(ev.WaitSec)
	case e.to == stateBackoff:
		m.retries.Inc()
	case e.to.terminal(): // the outcome of an admitted job
		if from == stateRunning {
			m.execLatency.Observe(execSec)
			m.busySeconds.Add(execSec)
		}
		if served == servedFleet && e.to == stateDone {
			m.cacheHits.Inc()
			m.fleetHits.Inc()
		}
		if e.quarantined {
			m.quarantined.Inc()
		}
		m.finished.With(ev.Status).Inc()
		// The job's spans are all ended or deferred by now.
		m.spansDropped.SetTotal(float64(s.cfg.Tracer.Store().Dropped()))
	}

	s.charge(j, from, e, served, execSec, waitSec)

	// Shutdown cancellations keep their pending journal records — they are
	// exactly what the next process must resume — and a cache hit is
	// journaled only when it resolves a job a previous process left pending.
	// A failed append degrades to non-durable operation rather than failing
	// the job.
	if s.journal != nil {
		rec := journal.Record{Hash: j.Hash}
		var err error
		switch {
		case from == stateNew && e.to == stateQueued:
			rec.Type = journal.TypeEnqueue
			rec.Label, rec.Campaign, rec.Priority = j.Label, j.campaign, j.Priority
			rec.Spec, err = j.spec.CanonicalJSON()
		case from == stateNew:
			if s.journal.Pending(j.Hash) {
				rec.Type, rec.Status, rec.Reason = journal.TypeTerminal, string(StatusDone), "cache"
			}
		case e.to.terminal() && reason != reasonShutdown:
			rec.Type, rec.Status, rec.Reason = journal.TypeTerminal, ev.Status, reason
		}
		if rec.Type != "" && err == nil {
			err = s.journal.Append(rec)
		}
		if err != nil {
			s.log.Warn("journal: append failed",
				"type", rec.Type, "job", j.ID, "hash", j.Hash, "err", err.Error())
		}
	}

	if e.to.terminal() {
		s.mu.Lock()
		if s.inflight[j.Hash] == j {
			delete(s.inflight, j.Hash)
		}
		s.retireLocked(j.ID)
		s.mu.Unlock()
	}

	m.events.Inc()
	s.events.Publish(ev)

	s.mirror()

	if s.log.Enabled(telemetry.LevelDebug) {
		s.log.WithTrace(j.span.TraceID(), j.span.SpanID()).Debug("job "+ev.Status,
			"job", j.ID, "label", j.Label, "attempt", ev.Attempt,
			"execSec", execSec, "err", ev.Error, "reason", ev.Reason)
	}

	if e.to.terminal() {
		// Release the run context: a finished job must not stay among
		// the service context's children for the life of the process.
		// Nothing reads j.ctx after this edge (a deferred-span or trace
		// re-run calls runSpec without it).
		j.cancel()
		close(j.done)
	}
	return true
}

// childSpan opens a span under j's root span (nil on an untraced service).
func (s *Service) childSpan(j *Job, name, kind string, attrs ...tracing.Attr) *tracing.Span {
	_, sp := s.cfg.Tracer.StartSpan(
		tracing.ContextWithSpan(context.Background(), j.span), name, kind, attrs...)
	return sp
}

// mirror replays the submission counters onto Config.Recorder as obs
// events, for library callers that keep one obs log for simulation and
// service alike. The recorder is not safe for concurrent use, hence the
// lock; the values come from the atomic handles, so no service lock is
// involved and a slow sink stalls only other mirror calls.
func (s *Service) mirror() {
	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	m := &s.metrics
	s.mirrorMu.Lock()
	defer s.mirrorMu.Unlock()
	rec.QueueDepth("campaign.queue", int(m.queueDepth.Value()))
	rec.Count("campaign.submitted", m.submitted.Value())
	rec.Count("campaign.cache.hits", m.cacheHits.Value())
	rec.Count("campaign.cache.misses", m.cacheMisses.Value())
	rec.Count("campaign.dedups", m.dedups.Value())
	rec.Gauge("campaign", "running", obs.NoNode, m.running.Value())
}

// reasonShutdown marks jobs cancelled because the process is stopping;
// transition keeps their journal records pending so the next process
// resumes them.
const reasonShutdown = "service shutdown"

// reasonFor maps a terminal (state, error) pair to the human-readable
// cause surfaced on job status JSON, the SSE terminal event, and the
// job span. Successful jobs have no reason.
func (s *Service) reasonFor(err error, to jobState) string {
	switch to {
	case stateFailed:
		if err != nil {
			return err.Error()
		}
		return "execution failed"
	case stateCancelled:
		switch {
		case errors.Is(err, ErrClosed):
			return reasonShutdown
		case errors.Is(err, context.DeadlineExceeded):
			return "job deadline exceeded"
		case errors.Is(err, context.Canceled):
			// A submitter's Cancel and a service Close both surface
			// context.Canceled on the job context; disambiguate on the
			// service's own state.
			if s.isClosed() {
				return reasonShutdown
			}
			return "cancelled by submitter"
		case err != nil:
			return err.Error()
		}
		return "cancelled"
	}
	return ""
}
