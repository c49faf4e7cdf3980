package network

import (
	"math"

	"ensemblekit/internal/sim"
)

// Flow is one in-flight transfer of a FlowSet. Flow structs are pooled on
// the set; ownership of a record follows the party that takes it out of
// the active set: whoever receives it from Sweep, or calls Leave for an
// interrupted one, releases it.
type Flow struct {
	// Tag is the caller's name for the transfer; the set never reads it.
	Tag int

	src, dst  int
	remaining float64 // bytes
	rate      float64 // bytes/s under the current allocation
	// size is the requested transfer size; size-remaining is the bytes
	// delivered so far.
	size float64
	// links is the flow's constraint list — egress, ingress, and (for
	// inter-group flows under a dragonfly topology) group uplink and
	// downlink indices into the set's capacity arrays — precomputed at
	// admission so reallocation never rebuilds it.
	links  [4]int32
	nlinks uint8
	// idx is the flow's slot in FlowSet.flows, giving removal without a
	// scan (-1 when not in the active set).
	idx int32

	// The Fabric's waiter state: the parked process, whether its wait was
	// already resolved, and the precomputed obs label ("n0->n1", empty
	// when instrumentation is off).
	proc *sim.Proc
	done bool
	link string
}

// CancelWait implements sim.Waiter for the blocked transfer: marking the
// flow done makes the completion path's pending Unpark a no-op.
func (fl *Flow) CancelWait(*sim.Proc) { fl.done = true }

// FlowSet is the fabric's progress arithmetic on its own: the active
// flows, their max-min fair rates, and the bytes each has left. It has no
// clock, no processes and no instrumentation — the caller says what time
// it is and decides what a completion wakes — so the event-driven Fabric
// and the runtime's timeline kernel run the same arithmetic, in the same
// flow order, and agree bit for bit.
//
// Nothing here allocates in steady state: flow structs are pooled, each
// flow carries its link-constraint list, and the water-fill works over
// scratch buffers the set owns.
type FlowSet struct {
	cfg Config
	// Link layout (fixed per configuration): [0,N) egress, [N,2N)
	// ingress, then per-group global uplinks and downlinks when a
	// topology is configured.
	nLinks int
	groups int

	flows      []*Flow
	lastSettle float64
	totalBytes float64

	// rem/count/unfixed are water-fill scratch, swept is Sweep's result
	// buffer, free is the flow pool.
	rem     []float64
	count   []int32
	unfixed []*Flow
	swept   []*Flow
	free    []*Flow
}

// Reset empties the set and binds it to a (validated) configuration,
// keeping every backing allocation.
func (s *FlowSet) Reset(cfg Config) {
	s.cfg = cfg
	s.nLinks, s.groups = 2*cfg.Nodes, 0
	if cfg.Topology != nil {
		s.groups = cfg.Topology.groups(cfg.Nodes)
		s.nLinks += 2 * s.groups
	}
	if cap(s.rem) < s.nLinks {
		s.rem = make([]float64, s.nLinks)
		s.count = make([]int32, s.nLinks)
	}
	s.rem, s.count = s.rem[:s.nLinks], s.count[:s.nLinks]
	for _, fl := range s.flows {
		s.Release(fl)
	}
	s.flows = s.flows[:0]
	s.lastSettle, s.totalBytes = 0, 0
}

// Join takes a flow from the pool, precomputes its constraint list and
// appends it to the active set. The caller settles first and reallocates
// after.
func (s *FlowSet) Join(src, dst int, bytes float64) *Flow {
	var fl *Flow
	if n := len(s.free); n > 0 {
		fl = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		fl = &Flow{}
	}
	fl.src, fl.dst = src, dst
	fl.remaining, fl.size = bytes, bytes
	fl.rate = 0
	fl.done = false
	n := s.cfg.Nodes
	fl.links[0] = int32(src)
	fl.links[1] = int32(n + dst)
	fl.nlinks = 2
	if t := s.cfg.Topology; t != nil {
		if gs, gd := t.groupOf(src), t.groupOf(dst); gs != gd {
			fl.links[2] = int32(2*n + gs)
			fl.links[3] = int32(2*n + s.groups + gd)
			fl.nlinks = 4
		}
	}
	fl.idx = int32(len(s.flows))
	s.flows = append(s.flows, fl)
	return fl
}

// Release returns a flow to the pool (see the ownership rule on Flow).
func (s *FlowSet) Release(fl *Flow) {
	fl.proc = nil
	fl.link = ""
	s.free = append(s.free, fl)
}

// Settle charges the time elapsed since the last settle against every
// active flow at current rates. The dt == 0 cheap-exit matters:
// re-balance points (completion events, interrupt cleanup, degradation
// boundaries) frequently coincide at one timestamp, and only the first
// settle at that instant may walk the flows.
func (s *FlowSet) Settle(now float64) {
	dt := now - s.lastSettle
	s.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, fl := range s.flows {
		progress := fl.rate * dt
		if progress > fl.remaining {
			progress = fl.remaining
		}
		fl.remaining -= progress
		s.totalBytes += progress
	}
}

// Leave deletes a flow from the active set via its recorded slot,
// shifting the tail down (order is semantically significant: the
// water-fill fixes flows in stable order and Sweep reports completions in
// flow order, so a swap-remove would perturb determinism).
func (s *FlowSet) Leave(fl *Flow) {
	i := int(fl.idx)
	if i < 0 || i >= len(s.flows) || s.flows[i] != fl {
		return
	}
	copy(s.flows[i:], s.flows[i+1:])
	last := len(s.flows) - 1
	s.flows[last] = nil
	s.flows = s.flows[:last]
	for ; i < last; i++ {
		s.flows[i].idx = int32(i)
	}
	fl.idx = -1
}

// Reallocate recomputes max-min fair rates with every capacity scaled by
// factor, and returns the time until the earliest projected completion;
// ok is false when nothing is in flight or nothing can make progress.
func (s *FlowSet) Reallocate(factor float64) (dt float64, ok bool) {
	if len(s.flows) == 0 {
		return 0, false
	}
	s.assignRates(factor)
	next := math.Inf(1)
	for _, fl := range s.flows {
		if fl.rate <= 0 {
			continue
		}
		if t := fl.remaining / fl.rate; t < next {
			next = t
		}
	}
	return next, !math.IsInf(next, 1)
}

// Sweep takes every exhausted flow out of the active set and returns
// them in flow order (the slice is reused by the next Sweep). A flow
// completes when its residual is sub-byte, or would drain in less time
// than the clock can resolve (guarding against an infinite reschedule
// loop when now+dt rounds back to now).
func (s *FlowSet) Sweep() []*Flow {
	const epsBytes = 1e-3
	const epsTime = 1e-9
	swept := s.swept[:0]
	w := 0
	for _, fl := range s.flows {
		if fl.remaining <= epsBytes || (fl.rate > 0 && fl.remaining/fl.rate <= epsTime) {
			s.totalBytes += fl.remaining
			fl.remaining = 0
			fl.idx = -1
			swept = append(swept, fl)
		} else {
			fl.idx = int32(w)
			s.flows[w] = fl
			w++
		}
	}
	for i := w; i < len(s.flows); i++ {
		s.flows[i] = nil
	}
	s.flows = s.flows[:w]
	s.swept = swept
	return swept
}

// assignRates computes a max-min fair allocation subject to per-node
// egress/ingress capacities, per-group global-link capacities (when a
// dragonfly topology is configured), and the per-flow cap, using
// progressive water-filling over the precomputed per-flow constraint
// lists. factor scales every capacity and the cap (transient
// degradation). All state lives in scratch buffers on the set; the loop
// allocates nothing.
func (s *FlowSet) assignRates(factor float64) {
	n := s.cfg.Nodes
	rem, count := s.rem, s.count
	for i := 0; i < n; i++ {
		rem[i] = s.cfg.bandwidthOf(i) * factor   // egress
		rem[n+i] = s.cfg.bandwidthOf(i) * factor // ingress
	}
	for g := 0; g < s.groups; g++ {
		rem[2*n+g] = s.cfg.Topology.GlobalBandwidth * factor          // uplink of group g
		rem[2*n+s.groups+g] = s.cfg.Topology.GlobalBandwidth * factor // downlink of group g
	}
	for i := range count {
		count[i] = 0
	}
	perFlowCap := s.cfg.PerFlowCap * factor

	unfixed := append(s.unfixed[:0], s.flows...)
	for _, fl := range unfixed {
		for _, l := range fl.links[:fl.nlinks] {
			count[l]++
		}
	}
	for len(unfixed) > 0 {
		// Bottleneck fair share across all constrained links.
		share := math.Inf(1)
		for l := 0; l < s.nLinks; l++ {
			if count[l] > 0 {
				if sh := rem[l] / float64(count[l]); sh < share {
					share = sh
				}
			}
		}
		if perFlowCap > 0 && perFlowCap <= share {
			// The protocol cap binds before any link: every remaining flow
			// gets the cap.
			for _, fl := range unfixed {
				fl.rate = perFlowCap
			}
			break
		}
		// Fix flows crossing a bottleneck link at the fair share,
		// iterating in stable flow order for determinism; survivors are
		// compacted in place.
		fixedAny := false
		w := 0
		for _, fl := range unfixed {
			bottlenecked := false
			for _, l := range fl.links[:fl.nlinks] {
				if rem[l]/float64(count[l]) <= share+1e-9 {
					bottlenecked = true
					break
				}
			}
			if bottlenecked {
				fl.rate = share
				for _, l := range fl.links[:fl.nlinks] {
					rem[l] -= share
					count[l]--
				}
				fixedAny = true
			} else {
				unfixed[w] = fl
				w++
			}
		}
		unfixed = unfixed[:w]
		if !fixedAny {
			// Defensive: should not happen; avoid an infinite loop.
			for _, fl := range unfixed {
				fl.rate = share
			}
			break
		}
	}
	// Keep the (possibly grown) scratch backing for the next reallocation.
	// Stale flow refs in the backing are harmless: flows are pooled for
	// the set's lifetime and the scratch is always rewritten from s.flows
	// before being read.
	s.unfixed = unfixed[:0]
}
