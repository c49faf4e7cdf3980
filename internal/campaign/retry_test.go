package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// retryConfig builds a service whose runFn is under test control and
// whose retry policy uses backoffs short enough for tests.
func retryConfig(attempts int, runFn func(context.Context, JobSpec) (*Result, error)) Config {
	return Config{
		Workers: 1,
		Metrics: telemetry.NewRegistry(),
		Retry: RetryPolicy{
			MaxAttempts: attempts,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Jitter:      0.2,
		},
		runFn: plainRun(runFn),
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Jitter:      0.5,
	}
	const hash = "sha256:deadbeef"
	for attempt := 1; attempt <= 6; attempt++ {
		got := p.Backoff(hash, attempt)
		if again := p.Backoff(hash, attempt); again != got {
			t.Fatalf("attempt %d: backoff not deterministic: %v then %v", attempt, got, again)
		}
		// Exponential schedule with multiplicative jitter: the delay must
		// sit within +/- Jitter of base*2^(attempt-1), clamped to max.
		ideal := p.BaseBackoff << (attempt - 1)
		if ideal > p.MaxBackoff {
			ideal = p.MaxBackoff
		}
		lo := time.Duration(float64(ideal) * (1 - p.Jitter))
		hi := time.Duration(float64(ideal) * (1 + p.Jitter))
		if got < lo || got > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, got, lo, hi)
		}
	}

	// Different jobs must not thunder in lockstep: the jitter is seeded
	// from the job hash, so at least one attempt's delay differs.
	same := true
	for attempt := 1; attempt <= 6 && same; attempt++ {
		same = p.Backoff("sha256:cafe", attempt) == p.Backoff(hash, attempt)
	}
	if same {
		t.Error("two distinct hashes produced identical jitter sequences")
	}

	// Zero jitter collapses to the exact exponential schedule.
	exact := RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second}
	for attempt, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
	} {
		if got := exact.Backoff(hash, attempt); got != want {
			t.Errorf("zero jitter, attempt %d: %v, want %v", attempt, got, want)
		}
	}
}

func TestTransientFailureSucceedsOnRetry(t *testing.T) {
	var calls atomic.Int64
	cfg := retryConfig(3, func(_ context.Context, spec JobSpec) (*Result, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("simulated transient fault %d", calls.Load())
		}
		return Execute(spec)
	})
	cfg.Tracer = tracing.NewTracer(tracing.NewStore(0, 0))
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, events, cancel := svc.Events().Subscribe()
	defer cancel()

	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed despite retry budget: %v", err)
	}
	if res == nil || calls.Load() != 3 {
		t.Fatalf("res=%v after %d executions, want a result on the 3rd", res, calls.Load())
	}

	st := svc.Stats()
	if st.Retries != 2 || st.Completed != 1 || st.Failed != 0 || st.Quarantined != 0 {
		t.Errorf("stats retries=%d completed=%d failed=%d quarantined=%d, want 2/1/0/0",
			st.Retries, st.Completed, st.Failed, st.Quarantined)
	}
	if got := svc.metrics.retries.Value(); got != 2 {
		t.Errorf("campaign_job_retries_total = %v, want 2", got)
	}

	// The event stream narrates both retries with attempt numbers, the
	// causing error, and the backoff being waited out.
	var retrying []JobEvent
	for ev := range events {
		if ev.Status == EventRetrying {
			retrying = append(retrying, *ev)
		}
		if ev.Terminal() {
			if ev.Attempt != 2 {
				t.Errorf("terminal event attempt = %d, want 2", ev.Attempt)
			}
			break
		}
	}
	if len(retrying) != 2 {
		t.Fatalf("saw %d retrying events, want 2", len(retrying))
	}
	for i, ev := range retrying {
		if ev.Attempt != i+1 {
			t.Errorf("retrying event %d: attempt = %d, want %d", i, ev.Attempt, i+1)
		}
		if ev.BackoffSec <= 0 {
			t.Errorf("retrying event %d: backoffSec = %v, want > 0", i, ev.BackoffSec)
		}
		if !strings.Contains(ev.Error, "simulated transient fault") {
			t.Errorf("retrying event %d: error %q lacks the cause", i, ev.Error)
		}
		// The denominator is the retry budget (attempts beyond the first).
		if want := fmt.Sprintf("retry %d/2", i+1); ev.Reason != want {
			t.Errorf("retrying event %d: reason %q, want %q", i, ev.Reason, want)
		}
	}

	// Every attempt is visible in the trace: one backoff span per retry
	// and execute spans stamped with the attempt number.
	spans := svc.Tracer().Store().Spans(j.span.Context().TraceID)
	backoffs := map[string]bool{}
	attempts := map[int64]bool{}
	for _, d := range spans {
		if d.Kind == "queue" && strings.HasPrefix(d.Name, "retry-backoff") {
			backoffs[d.Name] = true
		}
		for _, a := range d.Attrs {
			if a.Key == "retry.attempt" {
				if n, ok := a.Value.(int64); ok {
					attempts[n] = true
				}
			}
		}
	}
	if !backoffs["retry-backoff 1"] || !backoffs["retry-backoff 2"] {
		t.Errorf("backoff spans missing: %v", backoffs)
	}
	if !attempts[1] || !attempts[2] {
		t.Errorf("retry.attempt attributes missing: %v", attempts)
	}
}

func TestPermanentFailureNeverRetries(t *testing.T) {
	var calls atomic.Int64
	svc, err := NewService(retryConfig(5, func(_ context.Context, _ JobSpec) (*Result, error) {
		calls.Add(1)
		return nil, Permanent(errors.New("invalid placement geometry"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "invalid placement geometry") {
		t.Fatalf("got %v, want the permanent error", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("permanent failure executed %d times, want 1", got)
	}
	if st := svc.Stats(); st.Retries != 0 || st.Failed != 1 {
		t.Errorf("stats retries=%d failed=%d, want 0/1", st.Retries, st.Failed)
	}
}

func TestQuarantineAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	svc, err := NewService(retryConfig(3, func(_ context.Context, _ JobSpec) (*Result, error) {
		calls.Add(1)
		return nil, errors.New("flaky backend")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait(context.Background())
	if werr == nil || !strings.Contains(werr.Error(), "quarantined after 3 attempts") {
		t.Fatalf("got %v, want quarantine error", werr)
	}
	if !strings.Contains(werr.Error(), "flaky backend") {
		t.Errorf("quarantine error %v does not wrap the last cause", werr)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("executed %d times, want 3 (the full budget)", got)
	}
	st := svc.Stats()
	if st.Retries != 2 || st.Quarantined != 1 || st.Failed != 1 {
		t.Errorf("stats retries=%d quarantined=%d failed=%d, want 2/1/1", st.Retries, st.Quarantined, st.Failed)
	}
	if got := svc.metrics.quarantined.Value(); got != 1 {
		t.Errorf("campaign_jobs_quarantined_total = %v, want 1", got)
	}
}

func TestWorkerPanicBecomesFailedJob(t *testing.T) {
	var calls atomic.Int64
	svc, err := NewService(Config{
		Workers: 1,
		Metrics: telemetry.NewRegistry(),
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			if calls.Add(1) == 1 {
				panic("index out of range in stage solver")
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait(context.Background())
	if werr == nil || !strings.Contains(werr.Error(), "worker panic: index out of range in stage solver") {
		t.Fatalf("got %v, want the recovered panic as an error", werr)
	}
	if got := j.Status(); got != StatusFailed {
		t.Errorf("status = %s, want failed", got)
	}
	if st := svc.Stats(); st.WorkerPanics != 1 {
		t.Errorf("worker panics = %d, want 1", st.WorkerPanics)
	}
	if got := svc.metrics.workerPanics.Value(); got != 1 {
		t.Errorf("campaign_worker_panics_total = %v, want 1", got)
	}

	// The worker survived the panic: the next job runs to completion.
	j2, err := svc.Submit(context.Background(), jobFor(t, 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := j2.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("worker dead after panic: res=%v err=%v", res, err)
	}
}

func TestPanicConsumesRetryBudget(t *testing.T) {
	var calls atomic.Int64
	svc, err := NewService(retryConfig(2, func(_ context.Context, spec JobSpec) (*Result, error) {
		if calls.Add(1) == 1 {
			panic("transient corruption")
		}
		return Execute(spec)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A recovered panic is indistinguishable from any other transient
	// failure: with budget left, the job retries and succeeds.
	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := j.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("panicking job did not recover on retry: res=%v err=%v", res, err)
	}
	if st := svc.Stats(); st.Retries != 1 || st.WorkerPanics != 1 {
		t.Errorf("stats retries=%d panics=%d, want 1/1", st.Retries, st.WorkerPanics)
	}
}

func TestCancelDuringRetryBackoff(t *testing.T) {
	svc, err := NewService(Config{
		Workers: 1,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Hour, // park the retry so the test can race-free cancel it
			MaxBackoff:  time.Hour,
		},
		runFn: plainRun(func(_ context.Context, _ JobSpec) (*Result, error) {
			return nil, errors.New("transient")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, events, cancelSub := svc.Events().Subscribe()
	defer cancelSub()
	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range events {
		if ev.Status == EventRetrying {
			break
		}
	}
	j.Cancel()
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel during backoff: got %v, want context.Canceled", err)
	}
	if got := j.Status(); got != StatusCancelled {
		t.Errorf("status = %s, want cancelled", got)
	}
}

func TestCloseDuringRetryBackoff(t *testing.T) {
	svc, err := NewService(Config{
		Workers: 1,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Hour,
			MaxBackoff:  time.Hour,
		},
		runFn: plainRun(func(_ context.Context, _ JobSpec) (*Result, error) {
			return nil, errors.New("transient")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	_, events, cancelSub := svc.Events().Subscribe()
	j, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range events {
		if ev.Status == EventRetrying {
			break
		}
	}
	cancelSub()
	svc.Close() // must not wait out the hour-long timer
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("close during backoff: got %v, want ErrClosed", err)
	}
}
