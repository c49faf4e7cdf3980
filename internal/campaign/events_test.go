package campaign

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBroadcasterReplayAndLive(t *testing.T) {
	b := NewBroadcaster(16, 8)
	for i := 0; i < 3; i++ {
		b.Publish(JobEvent{Job: "j", Status: "queued"})
	}
	replay, ch, cancel := b.Subscribe()
	defer cancel()
	if len(replay) != 3 || replay[0].Seq != 1 || replay[2].Seq != 3 {
		t.Fatalf("replay %+v", replay)
	}
	b.Publish(JobEvent{Job: "j", Status: "running"})
	select {
	case ev := <-ch:
		if ev.Seq != 4 || ev.Status != "running" {
			t.Errorf("live event %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never arrived")
	}
	cancel()
	cancel() // idempotent
	b.Publish(JobEvent{Job: "j", Status: "done"})
	if _, ok := <-ch; ok {
		t.Error("cancelled subscriber's channel should be closed")
	}
}

func TestBroadcasterRingEviction(t *testing.T) {
	b := NewBroadcaster(2, 1)
	for i := 0; i < 5; i++ {
		b.Publish(JobEvent{Status: "queued"})
	}
	replay, _, cancel := b.Subscribe()
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 4 || replay[1].Seq != 5 {
		t.Fatalf("replay after eviction %+v", replay)
	}
	if _, _, evicted := b.Stats(); evicted != 3 {
		t.Errorf("evicted = %d, want 3", evicted)
	}
}

func TestBroadcasterDropsStalledSubscriber(t *testing.T) {
	b := NewBroadcaster(0, 1)
	drops := 0
	b.OnDrop = func() { drops++ }
	_, stalled, cancel := b.Subscribe()
	defer cancel()

	// The subscriber never reads: its 1-slot buffer fills on the first
	// event and the second must drop it without blocking the publisher.
	done := make(chan struct{})
	go func() {
		b.Publish(JobEvent{Status: "queued"})
		b.Publish(JobEvent{Status: "running"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}

	ev, ok := <-stalled
	if !ok || ev.Status != "queued" {
		t.Fatalf("buffered event %+v ok=%v", ev, ok)
	}
	if _, ok := <-stalled; ok {
		t.Error("stalled subscriber's channel should be closed after the drop")
	}
	if subs, dropped, _ := b.Stats(); subs != 0 || dropped != 1 {
		t.Errorf("stats subs=%d dropped=%d, want 0 and 1", subs, dropped)
	}
	if drops != 1 {
		t.Errorf("OnDrop fired %d times, want 1", drops)
	}
}

// collect drains the event channel until n terminal events arrived or the
// timeout hits.
func collect(t *testing.T, ch <-chan *JobEvent, terminal int) []JobEvent {
	t.Helper()
	var evs []JobEvent
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < terminal {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event channel closed after %d/%d terminal events", seen, terminal)
			}
			evs = append(evs, *ev)
			if ev.Terminal() {
				seen++
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d terminal events: %+v", seen, terminal, evs)
		}
	}
	return evs
}

func TestServiceEventLifecycle(t *testing.T) {
	boom := errors.New("boom")
	svc, err := NewService(Config{
		Workers: 1,
		runFn: plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			if spec.Sim.Seed == 2 {
				return nil, boom
			}
			return Execute(spec)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, ch, cancel := svc.Events().Subscribe()
	defer cancel()

	ok1, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{Campaign: "c-test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	bad, err := svc.Submit(context.Background(), jobFor(t, 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("failing job returned %v", err)
	}
	// Resubmitting the finished spec is a cache hit: one "cached" event.
	hit, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission missed the cache")
	}

	evs := collect(t, ch, 3)
	perJob := map[string][]string{}
	terminals := map[string]int{}
	for _, ev := range evs {
		perJob[ev.Job] = append(perJob[ev.Job], ev.Status)
		if ev.Terminal() {
			terminals[ev.Job]++
		}
	}
	for job, n := range terminals {
		if n != 1 {
			t.Errorf("job %s got %d terminal events: %v", job, n, perJob[job])
		}
	}
	assertLadder := func(job *Job, want ...string) {
		t.Helper()
		got := perJob[job.ID]
		if len(got) != len(want) {
			t.Errorf("job %s ladder %v, want %v", job.ID, got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("job %s ladder %v, want %v", job.ID, got, want)
				return
			}
		}
	}
	assertLadder(ok1, "queued", "running", "done")
	assertLadder(bad, "queued", "running", "failed")
	assertLadder(hit, "cached")

	for _, ev := range evs {
		if ev.Job == ok1.ID {
			if ev.Campaign != "c-test" {
				t.Errorf("campaign tag %q on %+v", ev.Campaign, ev)
			}
			if ev.Status == "done" && (ev.Objective == 0 || ev.ExecSec <= 0) {
				t.Errorf("done event missing objective/latency: %+v", ev)
			}
		}
		if ev.Job == bad.ID && ev.Status == "failed" && ev.Error != "boom" {
			t.Errorf("failed event error %q", ev.Error)
		}
		if ev.Job == hit.ID && !ev.CacheHit {
			t.Errorf("cached event not marked CacheHit: %+v", ev)
		}
	}
}

func TestServiceEventCancelled(t *testing.T) {
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
	_, ch, cancel := svc.Events().Subscribe()
	defer cancel()

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
		t.Fatal(err)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, ch, 2)
	var cancelledEvents int
	for _, ev := range evs {
		if ev.Job == queued.ID && ev.Terminal() {
			cancelledEvents++
			if ev.Status != string(StatusCancelled) {
				t.Errorf("terminal status %q, want cancelled", ev.Status)
			}
		}
	}
	if cancelledEvents != 1 {
		t.Errorf("cancelled job emitted %d terminal events, want 1", cancelledEvents)
	}
}
