package campaign

import (
	"sync"
	"time"
)

// Event statuses beyond the job lifecycle Status values.
const (
	// EventCached marks a submission answered from the result cache: the
	// job is born terminal, so "cached" is both its first and last event.
	EventCached = "cached"
	// EventRetrying marks a transiently-failed job re-entering the queue
	// under the retry policy: non-terminal, carries the failure, the
	// attempt number, and the backoff it is waiting out.
	EventRetrying = "retrying"
)

// JobEvent is one job state transition, as published on the service's
// event stream and pushed over the SSE endpoint. The transition ladder is
// queued → running → done|failed|cancelled, with cache hits collapsing to
// a single "cached" terminal event.
type JobEvent struct {
	// Seq is the broadcaster's monotonic sequence number (1-based);
	// subscribers use it to detect history they missed.
	Seq int64 `json:"seq"`
	// Time is the wall-clock time of the transition.
	Time time.Time `json:"ts"`
	// Campaign tags the owning campaign ("c-1"); empty for jobs submitted
	// outside a campaign.
	Campaign string `json:"campaign,omitempty"`
	// Job and Hash identify the job; Label is its display label.
	Job   string `json:"job"`
	Hash  string `json:"hash"`
	Label string `json:"label,omitempty"`
	// Status is the state entered: "queued", "running", "done", "cached",
	// "retrying", "failed", or "cancelled".
	Status string `json:"status"`
	// Error carries the failure of a failed or cancelled job; Reason is
	// its human-readable cause ("cancelled by submitter", "service
	// shutdown", "job deadline exceeded", or the worker error).
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Objective is F(P^{U,A,P}) on completion ("done"/"cached").
	Objective float64 `json:"objective,omitempty"`
	// WaitSec is the queued → running wall time (on "running" and terminal
	// events of executed jobs); ExecSec is the running → terminal wall time
	// (terminal events only).
	WaitSec float64 `json:"waitSec,omitempty"`
	ExecSec float64 `json:"execSec,omitempty"`
	// CacheHit marks jobs answered without execution.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Attempt counts completed retries of the job so far (0 on a first
	// run); on a "retrying" event it numbers the retry being scheduled.
	Attempt int `json:"attempt,omitempty"`
	// BackoffSec is the delay before the retry re-enters the queue
	// ("retrying" events only).
	BackoffSec float64 `json:"backoffSec,omitempty"`
	// Node is the advertised ID of the pool node executing the job;
	// empty on a fabric-less (single-node) service.
	Node string `json:"node,omitempty"`
}

// Terminal reports whether the event ends its job's lifecycle.
func (e JobEvent) Terminal() bool {
	switch e.Status {
	case string(StatusDone), string(StatusFailed), string(StatusCancelled), EventCached:
		return true
	}
	return false
}

// Broadcaster fans JobEvents out to subscribers with strictly bounded
// memory and zero blocking on the publish path: each subscriber owns a
// fixed-size buffered channel, and a subscriber whose buffer is full when
// an event of its scope arrives is dropped (its channel closed) rather
// than stalling the worker that published the event. A published event
// is allocated once and shared by pointer among the subscribers it
// reaches, so it is immutable: receivers read it and never write it. A
// bounded history ring lets late subscribers replay recent transitions —
// the SSE handler uses it to close the race between POSTing a campaign
// and connecting its stream. A subscription's scope is applied here,
// under the lock, to the replay and to live delivery alike: a campaign's
// stream copies and receives that campaign's events only.
type Broadcaster struct {
	// OnDrop, if set, observes each subscriber dropped for falling behind.
	OnDrop func()
	// OnSubscribers, if set, observes the subscriber count after every
	// subscribe/unsubscribe/drop.
	OnSubscribers func(n int)

	subBuf int

	mu      sync.Mutex
	seq     int64
	ring    []JobEvent // capacity-bounded history, oldest first
	start   int        // ring read index
	count   int        // live entries in ring
	subs    map[chan *JobEvent]scope
	dropped int64 // subscribers dropped for falling behind
	evicted int64 // events evicted from history
	closed  bool
}

// NewBroadcaster sizes the fan-out: histCap bounds the replay history
// (<= 0 disables replay), subBuf is each subscriber's channel buffer
// (minimum 1).
func NewBroadcaster(histCap, subBuf int) *Broadcaster {
	if subBuf < 1 {
		subBuf = 1
	}
	b := &Broadcaster{subs: make(map[chan *JobEvent]scope), subBuf: subBuf}
	if histCap > 0 {
		b.ring = make([]JobEvent, histCap)
	}
	return b
}

// scope is a subscription's predicate: every event (all), or one
// campaign's events with a sequence number above after.
type scope struct {
	all      bool
	campaign string
	after    int64
}

func (sc scope) admits(ev *JobEvent) bool {
	return sc.all || (ev.Seq > sc.after && ev.Campaign == sc.campaign)
}

// Publish stamps ev with the next sequence number, appends it to the
// history ring, and offers it to every subscriber whose scope admits it,
// without blocking. The event is copied to the heap once, on the first
// subscriber that admits it, and that one copy is handed to them all.
func (b *Broadcaster) Publish(ev JobEvent) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	if len(b.ring) > 0 {
		if b.count == len(b.ring) {
			b.start = (b.start + 1) % len(b.ring)
			b.count--
			b.evicted++
		}
		b.ring[(b.start+b.count)%len(b.ring)] = ev
		b.count++
	}
	var dropped int
	var shared *JobEvent
	for ch, sc := range b.subs {
		if !sc.admits(&ev) {
			continue
		}
		if shared == nil {
			shared = new(JobEvent)
			*shared = ev
		}
		select {
		case ch <- shared:
		default:
			// Slow consumer: dropping it is the bounded-memory contract.
			delete(b.subs, ch)
			close(ch)
			b.dropped++
			dropped++
		}
	}
	n := len(b.subs)
	b.mu.Unlock()
	for i := 0; i < dropped; i++ {
		if b.OnDrop != nil {
			b.OnDrop()
		}
	}
	if dropped > 0 && b.OnSubscribers != nil {
		b.OnSubscribers(n)
	}
}

// Subscribe registers a consumer of every event: replay holds the
// retained history (in order, already sequence-stamped) and ch delivers
// every event published after the snapshot — the two never overlap and
// never gap. The channel is closed when the subscriber is dropped for
// falling behind or the broadcaster closes; cancel unsubscribes
// (idempotent, safe after drop). Events received on ch are shared with
// other subscribers and must not be modified.
func (b *Broadcaster) Subscribe() (replay []JobEvent, ch <-chan *JobEvent, cancel func()) {
	return b.subscribe(scope{all: true})
}

// SubscribeCampaign is Subscribe scoped to one campaign's events with a
// sequence number above after: a reconnecting client's Last-Event-ID, or
// Seq as it was before the campaign's first event (0 for all of them).
// Other campaigns' events are neither copied into replay nor offered to
// ch, so they cannot make this subscriber fall behind.
func (b *Broadcaster) SubscribeCampaign(campaign string, after int64) (replay []JobEvent, ch <-chan *JobEvent, cancel func()) {
	return b.subscribe(scope{campaign: campaign, after: max(after, 0)})
}

func (b *Broadcaster) subscribe(sc scope) (replay []JobEvent, ch <-chan *JobEvent, cancel func()) {
	c := make(chan *JobEvent, b.subBuf)
	b.mu.Lock()
	// History is in sequence order and ends at b.seq, so a scoped replay
	// starts at the first entry above sc.after instead of scanning the ring.
	first := 0
	if sc.all {
		replay = make([]JobEvent, 0, b.count)
	} else if newer := b.seq - sc.after; newer < int64(b.count) {
		first = b.count - int(max(newer, 0))
	}
	for i := first; i < b.count; i++ {
		if ev := &b.ring[(b.start+i)%len(b.ring)]; sc.admits(ev) {
			replay = append(replay, *ev)
		}
	}
	if b.closed {
		close(c)
		b.mu.Unlock()
		return replay, c, func() {}
	}
	b.subs[c] = sc
	n := len(b.subs)
	b.mu.Unlock()
	if b.OnSubscribers != nil {
		b.OnSubscribers(n)
	}
	cancel = func() {
		b.mu.Lock()
		_, ok := b.subs[c]
		if ok {
			delete(b.subs, c)
			close(c)
		}
		n := len(b.subs)
		closed := b.closed
		b.mu.Unlock()
		if ok && !closed && b.OnSubscribers != nil {
			b.OnSubscribers(n)
		}
	}
	return replay, c, cancel
}

// Close ends the stream: every subscriber's channel is closed and later
// Publish calls are dropped.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
	if b.OnSubscribers != nil {
		b.OnSubscribers(0)
	}
}

// Seq returns the sequence number of the latest event published: every
// later event is above it, which lets a subscriber that knows when its
// campaign began scope the replay to the ring's tail.
func (b *Broadcaster) Seq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Stats reports the broadcaster's lifetime counters: current subscriber
// count, subscribers dropped for falling behind, and history evictions.
func (b *Broadcaster) Stats() (subscribers int, dropped, evicted int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs), b.dropped, b.evicted
}
