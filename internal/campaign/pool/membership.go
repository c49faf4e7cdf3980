package pool

import (
	"sort"
	"sync"
	"time"
)

// PeerState is a peer's liveness as observed locally. Every node keeps
// its own view; views converge through heartbeat gossip rather than
// consensus — routing only needs agreement in the steady state, and the
// retry policy absorbs the routing misses during churn.
type PeerState string

const (
	// StateAlive marks a peer whose beats arrive on schedule.
	StateAlive PeerState = "alive"
	// StateSuspect marks a peer that missed beats but is still routable:
	// it stays in the ring so a transient stall does not reshuffle jobs.
	StateSuspect PeerState = "suspect"
	// StateDead marks a peer removed from the ring; its hash range is
	// rebalanced onto the survivors. A dead peer that beats again is
	// resurrected.
	StateDead PeerState = "dead"
)

// PeerInfo is one peer as reported by /v1/pool/peers and gossiped in
// heartbeats.
type PeerInfo struct {
	// ID is the peer's advertised identity ("n1").
	ID string `json:"id"`
	// Addr is the base URL peers use to reach it ("http://10.0.0.7:8080").
	Addr string `json:"addr"`
	// State is the local view of the peer's liveness.
	State PeerState `json:"state"`
	// Self marks the reporting node's own entry.
	Self bool `json:"self,omitempty"`
	// SinceBeatSec is the age of the last beat observed from the peer.
	SinceBeatSec float64 `json:"sinceBeatSec"`
}

type peerEntry struct {
	id       string
	addr     string
	state    PeerState
	lastBeat time.Time
}

// Membership is one node's view of the pool: itself plus every peer it
// has heard of, each with a liveness state driven by beat timestamps.
// It is the bookkeeping half of the fabric — transport lives in Pool.
// All methods are safe for concurrent use.
type Membership struct {
	selfID   string
	selfAddr string

	// now is the clock; tests inject a fake one to step peers through
	// suspect and dead deterministically.
	now func() time.Time

	// suspectAfter and deadAfter are the silence thresholds.
	suspectAfter time.Duration
	deadAfter    time.Duration

	// onChange, if set, observes every routable-set change (peer added,
	// died, or resurrected) — the pool rebuilds its ring there. Called
	// without the membership lock held.
	onChange func()

	mu    sync.Mutex
	peers map[string]*peerEntry // excludes self
}

// NewMembership builds the view for a node identifying as (id, addr).
// suspectAfter/deadAfter bound how long a silent peer stays routable;
// now is the clock (nil = time.Now).
func NewMembership(id, addr string, suspectAfter, deadAfter time.Duration, now func() time.Time) *Membership {
	if now == nil {
		now = time.Now
	}
	if suspectAfter <= 0 {
		suspectAfter = 2 * time.Second
	}
	if deadAfter <= suspectAfter {
		deadAfter = 2 * suspectAfter
	}
	return &Membership{
		selfID:       id,
		selfAddr:     addr,
		now:          now,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		peers:        make(map[string]*peerEntry),
	}
}

// SelfID returns the node's own advertised ID.
func (m *Membership) SelfID() string { return m.selfID }

// SetOnChange registers the routable-set observer (the ring rebuild).
func (m *Membership) SetOnChange(fn func()) { m.onChange = fn }

// Upsert records a peer (id, addr) as alive with a fresh beat. It is
// called for join requests, gossiped member lists, and received beats.
// Self-references are ignored. Returns true when the routable set
// changed (new peer, resurrected peer, or address change).
func (m *Membership) Upsert(id, addr string) bool {
	if id == "" || id == m.selfID {
		return false
	}
	m.mu.Lock()
	e, ok := m.peers[id]
	changed := false
	if !ok {
		m.peers[id] = &peerEntry{id: id, addr: addr, state: StateAlive, lastBeat: m.now()}
		changed = true
	} else {
		if e.state == StateDead {
			changed = true // resurrection re-enters the ring
		}
		if addr != "" && addr != e.addr {
			e.addr = addr
			changed = true
		}
		e.state = StateAlive
		e.lastBeat = m.now()
	}
	m.mu.Unlock()
	if changed {
		m.fireChange()
	}
	return changed
}

// UpsertIfUnknown records a peer only when it has never been seen — the
// gossip merge path. Gossiped entries are second-hand: they may discover
// new peers, but must never refresh the beat of a known one (that would
// let two nodes keep a dead peer alive by gossiping their stale views at
// each other; beats only count from direct contact). Returns true when
// the peer was added.
func (m *Membership) UpsertIfUnknown(id, addr string) bool {
	if id == "" || id == m.selfID {
		return false
	}
	m.mu.Lock()
	if _, ok := m.peers[id]; ok {
		m.mu.Unlock()
		return false
	}
	m.peers[id] = &peerEntry{id: id, addr: addr, state: StateAlive, lastBeat: m.now()}
	m.mu.Unlock()
	m.fireChange()
	return true
}

// MarkDead forces a peer dead immediately — the fail-fast path when a
// forward or beat hits a hard transport error (connection refused means
// the process is gone; waiting out deadAfter would stall every retry).
// A later beat from the peer resurrects it. Returns true if the peer
// was routable before.
func (m *Membership) MarkDead(id string) bool {
	m.mu.Lock()
	e, ok := m.peers[id]
	changed := ok && e.state != StateDead
	if ok {
		e.state = StateDead
	}
	m.mu.Unlock()
	if changed {
		m.fireChange()
	}
	return changed
}

// Sweep re-derives every peer's state from its beat age: silent past
// suspectAfter → suspect, past deadAfter → dead. The heartbeat loop
// calls it once per interval. Returns true when the routable set
// changed (some peer crossed into or out of dead).
//
// Dead is sticky: a peer already dead (by threshold or by MarkDead's
// fail-fast) is skipped, never resurrected from beat age — otherwise a
// peer MarkDead'd on a hard transport error would flap back alive on
// every sweep until its last beat aged past deadAfter, re-routing
// retries at a corpse. Only direct contact (Upsert) resurrects.
func (m *Membership) Sweep() bool {
	now := m.now()
	m.mu.Lock()
	changed := false
	for _, e := range m.peers {
		if e.state == StateDead {
			continue
		}
		silent := now.Sub(e.lastBeat)
		var next PeerState
		switch {
		case silent >= m.deadAfter:
			next = StateDead
		case silent >= m.suspectAfter:
			next = StateSuspect
		default:
			next = StateAlive
		}
		if next != e.state {
			if next == StateDead || e.state == StateDead {
				changed = true
			}
			e.state = next
		}
	}
	m.mu.Unlock()
	if changed {
		m.fireChange()
	}
	return changed
}

// Routable returns the IDs the ring is built over: self plus every peer
// not currently dead (suspects stay routable so a transient stall does
// not reshuffle the whole key space).
func (m *Membership) Routable() []string {
	m.mu.Lock()
	ids := make([]string, 0, len(m.peers)+1)
	ids = append(ids, m.selfID)
	for id, e := range m.peers {
		if e.state != StateDead {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Addr returns a peer's base URL ("" when unknown).
func (m *Membership) Addr(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.selfID {
		return m.selfAddr
	}
	if e, ok := m.peers[id]; ok {
		return e.addr
	}
	return ""
}

// State returns the local view of a peer's liveness (self is always
// alive; unknown peers are dead).
func (m *Membership) State(id string) PeerState {
	if id == m.selfID {
		return StateAlive
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.peers[id]; ok {
		return e.state
	}
	return StateDead
}

// Peers snapshots the full view, self first then peers sorted by ID.
func (m *Membership) Peers() []PeerInfo {
	now := m.now()
	m.mu.Lock()
	out := make([]PeerInfo, 0, len(m.peers)+1)
	out = append(out, PeerInfo{ID: m.selfID, Addr: m.selfAddr, State: StateAlive, Self: true})
	for _, e := range m.peers {
		out = append(out, PeerInfo{
			ID: e.id, Addr: e.addr, State: e.state,
			SinceBeatSec: now.Sub(e.lastBeat).Seconds(),
		})
	}
	m.mu.Unlock()
	sort.Slice(out[1:], func(i, k int) bool { return out[i+1].ID < out[k+1].ID })
	return out
}

// beatTargets snapshots the (id, addr) pairs the heartbeat loop should
// beat: every known peer, including dead ones — beating a dead peer is
// how resurrection is discovered.
func (m *Membership) beatTargets() []PeerInfo {
	m.mu.Lock()
	out := make([]PeerInfo, 0, len(m.peers))
	for _, e := range m.peers {
		out = append(out, PeerInfo{ID: e.id, Addr: e.addr, State: e.state})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (m *Membership) fireChange() {
	if m.onChange != nil {
		m.onChange()
	}
}
