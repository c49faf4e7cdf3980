package campaign

import (
	"container/heap"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
)

// jobQueue is a max-heap on (priority, -seq): higher priority first, FIFO
// within a priority level.
type jobQueue struct{ items []*Job }

func (q jobQueue) Len() int { return len(q.items) }
func (q jobQueue) Less(i, k int) bool {
	if q.items[i].Priority != q.items[k].Priority {
		return q.items[i].Priority > q.items[k].Priority
	}
	return q.items[i].seq < q.items[k].seq
}
func (q jobQueue) Swap(i, k int) { q.items[i], q.items[k] = q.items[k], q.items[i] }
func (q *jobQueue) Push(x any)   { q.items = append(q.items, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// enqueue announces j as queued — the first time, or again after a retry
// backoff; a drain put-back that never left stateQueued is refused by
// the table and simply pushed — and then hands it to the workers. The
// caller counted j in s.admitting when it claimed it under s.mu; the
// announcement (journal fsync, event) runs outside the lock, so a
// service that closed meanwhile cancels the job instead of queueing it.
func (s *Service) enqueue(j *Job) {
	s.transition(j, edge{to: stateQueued})
	s.mu.Lock()
	s.admitting--
	closed := s.closed
	if !closed {
		heap.Push(&s.queue, j)
		s.metrics.queueDepth.Set(float64(len(s.queue.items)))
		s.work.Signal()
	}
	s.mu.Unlock()
	if closed {
		s.transition(j, edge{to: stateCancelled, err: ErrClosed})
	}
}

// takeQueuedLocked empties the queue and the retry-backoff timers,
// returning the jobs that were waiting in either (none of them running).
func (s *Service) takeQueuedLocked() []*Job {
	jobs := s.queue.items
	s.queue.items = nil
	for j, t := range s.retryTimers {
		t.Stop()
		delete(s.retryTimers, j)
		jobs = append(jobs, j)
	}
	s.metrics.queueDepth.Set(0)
	return jobs
}

// dropQueued removes a cancelled job from the queue — or from its retry
// backoff — if it has not started.
func (s *Service) dropQueued(j *Job) {
	s.mu.Lock()
	removed := false
	for i, q := range s.queue.items {
		if q == j {
			heap.Remove(&s.queue, i)
			s.metrics.queueDepth.Set(float64(len(s.queue.items)))
			s.space.Signal()
			removed = true
			break
		}
	}
	if t, ok := s.retryTimers[j]; ok {
		t.Stop()
		delete(s.retryTimers, j)
		removed = true
	}
	s.mu.Unlock()
	if removed {
		s.transition(j, edge{to: stateCancelled, err: context.Canceled})
	}
}

// worker runs queued jobs until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue.items) == 0 && !s.closed {
			s.work.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.metrics.queueDepth.Set(float64(len(s.queue.items)))
		s.space.Signal()
		s.mu.Unlock()
		if s.transition(j, edge{to: stateRunning}) {
			s.execute(j)
		}
	}
}

// execute runs one job and settles its outcome — terminal, or back to
// the queue when the retry policy covers the failure.
func (s *Service) execute(j *Job) {
	if err := j.ctx.Err(); err != nil {
		s.transition(j, edge{to: stateCancelled, err: err})
		return
	}
	// The run context carries the execute span so the runner (and its DES
	// obs bridge) parents under it.
	j.mu.Lock()
	runCtx := tracing.ContextWithSpan(j.ctx, j.execSpan)
	attempt := j.attempts + 1
	j.mu.Unlock()
	res, info, err := s.runRouted(runCtx, j)
	switch {
	case j.ctx.Err() != nil:
		// Cancelled mid-run: discard whatever the worker produced so a
		// torn or unwanted result never poisons the cache.
		s.transition(j, edge{to: stateCancelled, err: j.ctx.Err()})
	case err == nil:
		s.storeResult(j.Hash, res)
		s.transition(j, edge{to: stateDone, res: res, info: info})
	case !isTransient(err) || s.cfg.Retry.MaxAttempts <= 1:
		s.transition(j, edge{to: stateFailed, err: err})
	case attempt >= s.cfg.Retry.MaxAttempts:
		// Out of budget: quarantine, so a poison job can never occupy the
		// pool forever.
		s.transition(j, edge{to: stateFailed, quarantined: true,
			err: fmt.Errorf("quarantined after %d attempts: %w", attempt, err)})
	default:
		s.retryAfter(j, err, s.cfg.Retry.Backoff(j.Hash, attempt))
	}
}

// storeResult caches a fresh result. A store failure degrades to
// uncached operation; the result itself is still good.
func (s *Service) storeResult(hash string, res *Result) {
	s.mu.Lock()
	_ = s.cache.put(hash, res)
	s.metrics.setCacheLocked(s.cache.stats())
	s.mu.Unlock()
}

// runShielded invokes the runner behind a recover() shield: a panicking
// job becomes a transient "worker panic" failure (retryable under the
// policy) instead of killing the process, and the worker stays alive.
func (s *Service) runShielded(ctx context.Context, j *Job) (res *Result, info runtime.RunInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("worker panic: %v", r)
			s.metrics.workerPanics.Inc()
			s.log.Error("worker recovered from job panic",
				"job", j.ID, "hash", j.Hash, "panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
		}
	}()
	return s.cfg.runFn(ctx, j.Hash, j.spec)
}

// defaultRun is the production runFn: the serial execution over the
// service's shared World, traced when the worker's execute span is
// recording.
func (s *Service) defaultRun(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
	if d := s.cfg.ExecDelay; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, runtime.RunInfo{}, ctx.Err()
		}
	}
	res, info, err := executeSpec(ctx, s.cfg.Tracer, hash, spec, s.world)
	if err != nil && ctx.Err() == nil {
		// A simulated run is a pure function of its spec: an identical
		// re-run fails identically, so simulation errors never retry.
		err = Permanent(err)
	}
	if info.FastPath {
		s.metrics.fastpathHits.Inc()
	}
	return res, info, err
}

// retryAfter parks a transiently-failed job for delay. The backoff runs
// on a timer rather than a sleeping worker, so a waiting retry never
// occupies pool capacity; the delay is deterministic per (spec hash,
// attempt), keeping end-to-end behaviour reproducible. The retryTimers
// entry is the claim on the parked job: whoever removes it (the firing
// timer, a Cancel, a drain, Close) owns the job's next transition.
func (s *Service) retryAfter(j *Job, cause error, delay time.Duration) {
	s.transition(j, edge{to: stateBackoff, err: cause, backoff: delay})
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.retryTimers[j] = time.AfterFunc(delay, func() { s.enqueueRetry(j) })
	}
	s.mu.Unlock()
	if closed {
		s.transition(j, edge{to: stateCancelled, err: ErrClosed})
	}
}

// enqueueRetry returns a backed-off job to the queue when its timer
// fires — unless a Cancel, a drain or Close claimed it while the timer
// raced for s.mu. Retries bypass queue-capacity admission: the job was
// admitted once and never left the service.
func (s *Service) enqueueRetry(j *Job) {
	s.mu.Lock()
	_, ok := s.retryTimers[j]
	if ok {
		delete(s.retryTimers, j)
		s.admitting++
	}
	s.mu.Unlock()
	if ok {
		s.enqueue(j)
	}
}
