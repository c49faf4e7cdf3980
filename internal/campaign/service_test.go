package campaign

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// jobFor builds a distinct valid spec per seed.
func jobFor(t *testing.T, seed int64) JobSpec {
	t.Helper()
	p := placement.C15()
	es := runtime.SpecForPlacement(p, 4)
	js, err := NewJob(cluster.Cori(2), p, es, runtime.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// plainRun adapts a (ctx, spec) runner to Config.runFn for tests that
// neither need the admitted hash nor report how the run was served.
func plainRun(fn func(context.Context, JobSpec) (*Result, error)) func(context.Context, string, JobSpec) (*Result, runtime.RunInfo, error) {
	return func(ctx context.Context, _ string, spec JobSpec) (*Result, runtime.RunInfo, error) {
		res, err := fn(ctx, spec)
		return res, runtime.RunInfo{}, err
	}
}

func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	var executions atomic.Int64
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers: 4,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			executions.Add(1)
			<-release // hold the run so every submission sees it in flight
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 16
	spec := jobFor(t, 1)
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := svc.Submit(context.Background(), spec, SubmitOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(release)

	var first *Result
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Errorf("submission %d got a different result object", i)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("identical submissions executed %d times, want 1", got)
	}
	st := svc.Stats()
	if st.Dedups != n-1 {
		t.Errorf("dedups = %d, want %d", st.Dedups, n-1)
	}
}

func TestDistinctSpecsNeverShare(t *testing.T) {
	var executions atomic.Int64
	svc, err := NewService(Config{
		Workers: 4,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			executions.Add(1)
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 6
	hashes := make(map[string]bool)
	results := make(map[*Result]bool)
	for i := 0; i < n; i++ {
		j, err := svc.SubmitWait(context.Background(), jobFor(t, int64(i+1)), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hashes[j.Hash] = true
		results[res] = true
	}
	if len(hashes) != n || len(results) != n {
		t.Errorf("got %d hashes / %d results for %d distinct specs", len(hashes), len(results), n)
	}
	if got := executions.Load(); got != n {
		t.Errorf("distinct specs executed %d times, want %d", got, n)
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	spec := jobFor(t, 1)
	j1, err := svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	j2, err := svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Error("resubmission of a completed spec was not a cache hit")
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Error("cache hit returned a different result object")
	}
	if st := svc.Stats(); st.CacheHits != 1 || st.HitRate() != 0.5 {
		t.Errorf("stats: hits=%d rate=%.2f, want 1 and 0.50", st.CacheHits, st.HitRate())
	}
}

func TestCancelledJobsDoNotPoisonCache(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(ctx context.Context, spec JobSpec) (*Result, error) {
			once.Do(func() { close(started) }) // the post-cancel re-run enters here too
			<-release
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	spec := jobFor(t, 1)
	j, err := svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside runFn
	j.Cancel()
	close(release)
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}

	// The next submission must re-execute: nothing was cached.
	j2, err := svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit {
		t.Error("cancelled job's result leaked into the cache")
	}
	if res, err := j2.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("re-run after cancel: res=%v err=%v", res, err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			<-release
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Occupy the only worker, then queue a second job and cancel it.
	blocker, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(context.Background(), jobFor(t, 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel: got %v, want context.Canceled", err)
	}
	if got := queued.Status(); got != StatusCancelled {
		t.Errorf("status = %s, want cancelled", got)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", st.Cancelled)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers:    1,
		QueueDepth: 1,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			<-release
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// First job occupies the worker (it may briefly sit in the queue);
	// second fills the queue; third must bounce.
	if _, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(context.Background(), jobFor(t, 2), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), jobFor(t, 3), SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}

	// SubmitWait blocks instead, and completes once the queue drains.
	done := make(chan error, 1)
	go func() {
		j, err := svc.SubmitWait(context.Background(), jobFor(t, 3), SubmitOptions{})
		if err == nil {
			_, err = j.Wait(context.Background())
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("SubmitWait returned before a slot freed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	release := make(chan struct{})
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			mu.Lock()
			order = append(order, spec.Sim.Seed)
			mu.Unlock()
			<-release
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Occupy the worker so subsequent submissions queue up.
	first, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	var jobs []*Job
	for seed, prio := range map[int64]int{2: 0, 3: 5, 4: 5, 5: 10} {
		j, err := svc.Submit(context.Background(), jobFor(t, seed), SubmitOptions{Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 || order[0] != 1 {
		t.Fatalf("execution order %v", order)
	}
	// Highest priority first; the two priority-5 jobs keep submission
	// order relative to each other; priority 0 runs last.
	if order[1] != 5 {
		t.Errorf("priority 10 ran at position %v, want right after the blocker: %v", order[1], order)
	}
	if order[4] != 2 {
		t.Errorf("priority 0 should run last: %v", order)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := jobFor(t, 1)

	svc1, err := NewService(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc1.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2, err := NewService(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, err := svc2.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Fatal("restarted service missed the disk cache")
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != res1.Makespan || res2.Objective != res1.Objective {
		t.Errorf("disk round-trip changed the result: %+v vs %+v", res2, res1)
	}
	if st := svc2.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestServiceEfficienciesMatchTrace: the efficiencies a service result
// carries are exactly what core.Efficiencies extracts from the job's
// re-run trace, and its objective is F(P^{U,A,P}) over a direct
// runtime.RunSimulated of the same inputs — so a caller scoring from the
// result instead of the trace changes no score. Table 2 × 3 seeds.
func TestServiceEfficienciesMatchTrace(t *testing.T) {
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	spec := cluster.Cori(1)
	for _, p := range placement.ConfigsTable2() {
		es := runtime.SpecForPlacement(p, 8)
		for seed := int64(1); seed <= 3; seed++ {
			opts := runtime.SimOptions{Seed: seed, Jitter: 0.02}
			js, err := NewJob(spec, p, es, opts)
			if err != nil {
				t.Fatal(err)
			}
			j, err := svc.SubmitWait(ctx, js, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := j.Trace()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Efficiencies(tr.Members)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Efficiencies, want) {
				t.Errorf("%s seed %d: result efficiencies %v, trace gives %v", p.Name, seed, res.Efficiencies, want)
			}
			direct, err := runtime.RunSimulated(js.Cluster, p, es, opts)
			if err != nil {
				t.Fatal(err)
			}
			effs, err := core.Efficiencies(direct.Members)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := indicators.Objective(p, effs, indicators.StageUAP)
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective != ref {
				t.Errorf("%s seed %d: result objective %v, direct run %v", p.Name, seed, res.Objective, ref)
			}
		}
	}
}
