package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// drain returns what is buffered on ch without waiting for more.
func drain(ch <-chan *JobEvent) []JobEvent {
	var out []JobEvent
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, *ev)
		default:
			return out
		}
	}
}

// sameEvents compares two event sequences, an empty one equal to nil.
func sameEvents(a, b []JobEvent) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestScopedSubscribeSeesExactlyItsCampaign interleaves publishes for k
// campaigns with scoped subscribes at random points of a small ring (so
// history is evicted under them) and checks every subscriber against a
// model: replay ++ channel is the campaign's events above `after`, those
// the ring still held at subscribe time and then every later one — in
// order, no gap, no duplicate, nothing of another campaign.
func TestScopedSubscribeSeesExactlyItsCampaign(t *testing.T) {
	const k, hist, steps = 5, 64, 600
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroadcaster(hist, steps) // buffers hold a whole run: nobody is dropped
		type sub struct {
			campaign string
			after    int64
			want     []JobEvent // from the model
			replay   []JobEvent
			ch       <-chan *JobEvent
		}
		var all []JobEvent // every event published, Seq = index+1
		var subs []*sub
		for step := 0; step < steps; step++ {
			if rng.Intn(10) > 0 {
				ev := JobEvent{Campaign: fmt.Sprintf("c-%d", rng.Intn(k)), Job: fmt.Sprint(step), Status: "queued"}
				b.Publish(ev)
				ev.Seq = int64(len(all) + 1)
				for _, s := range subs {
					if s.campaign == ev.Campaign && ev.Seq > s.after {
						s.want = append(s.want, ev)
					}
				}
				all = append(all, ev)
				continue
			}
			s := &sub{campaign: fmt.Sprintf("c-%d", rng.Intn(k))}
			switch rng.Intn(3) {
			case 1:
				s.after = rng.Int63n(int64(len(all)) + 1)
			case 2:
				s.after = int64(len(all)) + rng.Int63n(3) // at or past the newest
			}
			if got := b.Seq(); got != int64(len(all)) {
				t.Fatalf("seed %d: Seq() = %d after %d publishes", seed, got, len(all))
			}
			for _, ev := range all[max(0, len(all)-hist):] {
				if ev.Campaign == s.campaign && ev.Seq > s.after {
					s.want = append(s.want, ev)
				}
			}
			var cancel func()
			s.replay, s.ch, cancel = b.SubscribeCampaign(s.campaign, s.after)
			defer cancel()
			subs = append(subs, s)
		}
		for i, s := range subs {
			if got := append(s.replay, drain(s.ch)...); !sameEvents(got, s.want) {
				t.Fatalf("seed %d: subscriber %d (%s after %d) saw %d events, model has %d",
					seed, i, s.campaign, s.after, len(got), len(s.want))
			}
		}
		if _, dropped, _ := b.Stats(); dropped != 0 {
			t.Fatalf("seed %d: %d subscribers dropped", seed, dropped)
		}
	}
}

// TestScopedSubscribeConcurrent races one publisher per campaign against
// scoped subscribers joining mid-stream; an unscoped subscriber present
// from the start is the ground truth. Run under -race.
func TestScopedSubscribeConcurrent(t *testing.T) {
	const k, perCampaign, joiners = 4, 300, 6
	b := NewBroadcaster(k*perCampaign, k*perCampaign)
	_, truthCh, cancelTruth := b.Subscribe()
	defer cancelTruth()

	type sub struct {
		campaign string
		after    int64
		got      []JobEvent
	}
	subs := make([]*sub, k*joiners)
	var pubs, joins sync.WaitGroup
	published := make(chan struct{})
	for c := 0; c < k; c++ {
		name := fmt.Sprintf("c-%d", c)
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perCampaign; i++ {
				b.Publish(JobEvent{Campaign: name, Job: fmt.Sprint(i), Status: "queued"})
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
		}()
		for j := 0; j < joiners; j++ {
			s := &sub{campaign: name}
			subs[c*joiners+j] = s
			joins.Add(1)
			go func() {
				defer joins.Done()
				for n := 0; n < j; n++ {
					runtime.Gosched() // stagger the joins
				}
				if j%2 == 1 {
					s.after = b.Seq() / 2
				}
				replay, ch, cancel := b.SubscribeCampaign(s.campaign, s.after)
				defer cancel()
				s.got = replay
				<-published
				s.got = append(s.got, drain(ch)...)
			}()
		}
	}
	pubs.Wait()
	close(published)
	joins.Wait()

	truth := drain(truthCh)
	if len(truth) != k*perCampaign {
		t.Fatalf("ground truth has %d events, want %d", len(truth), k*perCampaign)
	}
	for i, s := range subs {
		var want []JobEvent
		for _, ev := range truth {
			if ev.Campaign == s.campaign && ev.Seq > s.after {
				want = append(want, ev)
			}
		}
		if !sameEvents(s.got, want) {
			t.Fatalf("subscriber %d (%s after %d) saw %d events, truth has %d", i, s.campaign, s.after, len(s.got), len(want))
		}
	}
}

// TestScopedSubscriberNotDroppedByOtherCampaigns: an idle reader of
// campaign A's stream survives any amount of campaign B traffic, which an
// unscoped idle reader does not, and is still dropped when its own
// campaign outruns its buffer.
func TestScopedSubscriberNotDroppedByOtherCampaigns(t *testing.T) {
	const subBuf = 8
	b := NewBroadcaster(16, subBuf)
	_, scoped, cancelScoped := b.SubscribeCampaign("A", 0)
	defer cancelScoped()
	_, unscoped, cancelUnscoped := b.Subscribe()
	defer cancelUnscoped()

	for i := 0; i < 10*subBuf; i++ {
		b.Publish(JobEvent{Campaign: "B", Status: "queued"})
	}
	if subscribers, dropped, _ := b.Stats(); subscribers != 1 || dropped != 1 {
		t.Fatalf("after B's burst: %d subscribers, %d dropped; want the scoped one left and the unscoped one dropped", subscribers, dropped)
	}
	if got := drain(unscoped); len(got) != subBuf {
		t.Fatalf("dropped unscoped reader had %d events buffered, want %d", len(got), subBuf)
	}
	b.Publish(JobEvent{Campaign: "A", Status: "done"})
	if got := drain(scoped); len(got) != 1 || got[0].Campaign != "A" || got[0].Seq != 10*subBuf+1 {
		t.Fatalf("scoped reader got %+v, want A's one event", got)
	}

	for i := 0; i <= subBuf; i++ {
		b.Publish(JobEvent{Campaign: "A", Status: "queued"})
	}
	if _, dropped, _ := b.Stats(); dropped != 2 {
		t.Fatalf("dropped = %d after A outran its own reader, want 2", dropped)
	}
}

// allocBytes returns the bytes fn allocates per call.
func allocBytes(fn func()) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestScopedSubscribeCopiesOnlyItsSlice: on a full ring sized like the
// service's (4096-event history, 256-event subscriber buffers) that holds
// 63 events of each campaign, a scoped subscribe allocates under a tenth
// of what copying the ring does.
func TestScopedSubscribeCopiesOnlyItsSlice(t *testing.T) {
	const hist, mine = 4096, 63
	b := NewBroadcaster(hist, 256)
	for i := 0; i < hist; i++ {
		b.Publish(JobEvent{Campaign: fmt.Sprintf("c-%d", i/mine), Job: "j-1", Label: "C1.5", Status: "done"})
	}
	var replay []JobEvent
	scoped := allocBytes(func() {
		var cancel func()
		replay, _, cancel = b.SubscribeCampaign("c-7", 0)
		cancel()
	})
	if len(replay) != mine {
		t.Fatalf("scoped replay has %d events, want %d", len(replay), mine)
	}
	full := allocBytes(func() {
		var cancel func()
		replay, _, cancel = b.Subscribe()
		cancel()
	})
	if len(replay) != hist {
		t.Fatalf("full replay has %d events, want %d", len(replay), hist)
	}
	if scoped*10 >= full {
		t.Fatalf("scoped subscribe allocates %d B, unscoped %d B: want under a tenth", scoped, full)
	}
}

// TestScopedReplayAllocatedOnce: a scoped replay is sized before it is
// copied, so opening a campaign's stream costs as many allocations with
// 3 events to replay as with 63.
func TestScopedReplayAllocatedOnce(t *testing.T) {
	allocs := func(mine int) float64 {
		b := NewBroadcaster(4096, 256)
		for i := 0; i < 4096; i++ {
			campaign := "other"
			if i%64 < mine {
				campaign = "c-7"
			}
			b.Publish(JobEvent{Campaign: campaign, Job: "j-1", Status: "done"})
		}
		return testing.AllocsPerRun(50, func() {
			_, _, cancel := b.SubscribeCampaign("c-7", b.Seq()-64)
			cancel()
		})
	}
	if few, many := allocs(3), allocs(63); few != many {
		t.Errorf("scoped subscribe: %.0f allocations for 3 events, %.0f for 63; want equal", few, many)
	}
}
