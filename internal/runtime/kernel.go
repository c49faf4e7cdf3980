package runtime

import (
	"math/rand"
	"slices"

	"ensemblekit/internal/network"
	"ensemblekit/internal/trace"
)

// The timeline kernel evaluates the paper's execution model (Eq. 1–2: the
// S, I^S, W / R, A, I^A recurrence coupled by max()) without the engine.
// Each component is a small state machine holding at most one pending
// wake-up; the kernel resumes whichever is due next and lets it run until
// it blocks again — on a modeled delay, on its member's token or
// announcement store, or on the fabric, whose own progress arithmetic
// (network.FlowSet) it joins and sweeps in global time order.
//
// Bit-identity with the engine holds by construction: every wake-up
// carries (time, sequence number), the sequence drawn from one counter at
// the moment the engine would have scheduled the corresponding event, so
// simultaneous wake-ups resolve in the engine's order; every time is
// now+delay and every duration now-start, the engine's own expressions;
// and compute stages draw from the same per-component seeded jitter
// stream. What the kernel does not model it declines, statically
// (SimOptions.NeedsEngine), and the engine runs.

// Component phases: what a component's next wake-up means.
const (
	phStart uint8 = iota // process start
	phS                  // sim: S ends
	phIS                 // sim: handed a read-completion token
	phW                  // sim: W ends
	phLead               // ana: handed the first chunk announcement
	phLat                // ana: remote-read protocol latency elapsed
	phFlow               // ana: remote-read transfer completed
	phR                  // ana: R ends (local copy or deserialize done)
	phA                  // ana: A ends
	phIA                 // ana: handed the next chunk announcement
	phDone
)

// wake is a pending event: when, and where in the engine's order among
// events at that instant.
type wake struct {
	t     float64
	seq   int64
	armed bool
}

// kcomp is one component of a kernel run.
type kcomp struct {
	ct       *trace.ComponentTrace
	alloc    compAlloc
	staging  float64        // the plan's W (sim) or co-located R (ana)
	compute  trace.Counters // ComputeCounters, Cycles set per stage
	jit      jitter
	sim      int   // index of the member's simulation
	anas     int   // sim: number of analyses (they follow it)
	prodNode int   // ana: the simulation's node
	bytes    int64 // chunk size
	stages   []trace.StageRecord

	phase uint8
	step  int
	wake  // the pending wake-up, if armed
	// start and dur belong to the stage in progress.
	start, dur float64
	// items is the component's store backlog: read-completion tokens for
	// a simulation, staged-chunk announcements for an analysis. waiting
	// marks the component blocked on it; got counts the tokens a
	// simulation has taken for the current step.
	items   int
	got     int
	waiting bool
}

// kernel is the scratch of one run, recycled through World.
type kernel struct {
	comps []kcomp
	flows network.FlowSet
	now   float64
	seq   int64
	// timer is the fabric's pending earliest-completion event.
	timer wake
	pl    *simPlan
}

// arm schedules w d seconds from now, next in the engine's order.
func (k *kernel) arm(w *wake, d float64) {
	*w = wake{k.now + d, k.seq, true}
	k.seq++
}

// wait arms c's wake-up d seconds from now (sim.Proc.Wait).
func (k *kernel) wait(c *kcomp, d float64) { k.arm(&c.wake, max(d, 0)) }

// offer delivers one item to c's store (sim.Store.Offer): straight to c
// if it is blocked there, into the backlog otherwise.
func (k *kernel) offer(c *kcomp) {
	if c.waiting {
		c.waiting = false
		k.wait(c, 0)
		return
	}
	c.items++
}

// take removes one item from c's store, or blocks c on it in phase ph
// (sim.Store.Get); it reports whether an item was there.
func (c *kcomp) take(ph uint8) bool {
	if c.items > 0 {
		c.items--
		return true
	}
	c.waiting, c.phase = true, ph
	return false
}

// reallocate re-balances the fabric and re-arms its completion timer
// (network.Fabric.reallocate).
func (k *kernel) reallocate() {
	k.timer.armed = false
	if dt, ok := k.flows.Reallocate(1); ok {
		k.arm(&k.timer, dt)
	}
}

// record appends a stage to c's current step and, on the step's third
// stage, closes the step.
func (c *kcomp) record(st trace.StageRecord) {
	c.stages = append(c.stages, st)
	if n := len(c.stages); n%3 == 0 {
		c.ct.Steps = append(c.ct.Steps, trace.StepRecord{Index: c.step, Stages: c.stages[n-3 : n : n]})
	}
}

// compute starts a compute stage (S or A) of c.
func (k *kernel) compute(c *kcomp, ph uint8) {
	c.start = k.now
	c.dur = c.alloc.assess.ComputeTime * c.jit.next()
	c.phase = ph
	k.wait(c, c.dur)
}

// computed records the compute stage that just ended.
func (k *kernel) computed(c *kcomp, stage trace.Stage) {
	counters := c.compute
	counters.Cycles = c.dur * k.pl.spec.ClockHz * float64(c.alloc.tenant.Cores)
	c.record(trace.StageRecord{Stage: stage, Start: c.start, Duration: c.dur, Counters: counters})
}

// resumeSim runs simulation c from its wake-up to its next block.
func (k *kernel) resumeSim(c *kcomp) {
	model := k.pl.model
	switch c.phase {
	case phStart:
		c.ct.Start = k.now
		k.compute(c, phS)
		return
	case phS:
		k.computed(c, trace.StageS)
		// I^S: one token per analysis, each read of the previous chunk.
		c.start, c.got = k.now, 0
	case phIS:
		c.got++
	case phW:
		wDur := k.now - c.start
		c.record(trace.StageRecord{Stage: trace.StageW, Start: c.start, Duration: wDur,
			Counters: model.IOCounters(c.alloc.tenant, c.bytes, wDur)})
		self := c.sim
		for a := self + 1; a <= self+c.anas; a++ {
			k.offer(&k.comps[a])
		}
		c.step++
		if c.step < k.pl.es.Steps {
			k.compute(c, phS)
		} else {
			c.ct.End = k.now
			c.phase = phDone
		}
		return
	}
	for c.got < c.anas {
		if !c.take(phIS) {
			return
		}
		c.got++
	}
	c.record(trace.StageRecord{Stage: trace.StageIS, Start: c.start, Duration: k.now - c.start})
	c.start, c.phase = k.now, phW
	k.wait(c, c.staging)
}

// resumeAna runs analysis c (component index ci) from its wake-up to its
// next block.
func (k *kernel) resumeAna(ci int, c *kcomp) {
	model := k.pl.model
	switch c.phase {
	case phStart:
		// Lead-in: the component's own timeline starts at its first read.
		if !c.take(phLead) {
			return
		}
		fallthrough
	case phLead:
		c.ct.Start = k.now
		k.read(ci, c)
	case phLat:
		k.join(ci, c)
	case phFlow:
		c.phase = phR
		k.wait(c, model.DeserializeTime(c.bytes))
	case phR:
		rDur := k.now - c.start
		c.record(trace.StageRecord{Stage: trace.StageR, Start: c.start, Duration: rDur,
			Counters: model.IOCounters(c.alloc.tenant, c.bytes, rDur)})
		// The data is consumed: permit the next write.
		k.offer(&k.comps[c.sim])
		k.compute(c, phA)
	case phA:
		k.computed(c, trace.StageA)
		// I^A: wait for the next chunk (zero on the final step).
		c.start = k.now
		if c.step < k.pl.es.Steps-1 && !c.take(phIA) {
			return
		}
		fallthrough
	case phIA:
		c.record(trace.StageRecord{Stage: trace.StageIA, Start: c.start, Duration: k.now - c.start})
		c.step++
		if c.step < k.pl.es.Steps {
			k.read(ci, c)
		} else {
			c.ct.End = k.now
			c.phase = phDone
		}
	}
}

// read starts an R stage (dtl.Dimes.Read): a coalesced copy+deserialize
// when co-located, otherwise protocol latency, then the fabric.
func (k *kernel) read(ci int, c *kcomp) {
	c.start = k.now
	switch {
	case c.alloc.node == c.prodNode:
		c.phase = phR
		k.wait(c, c.staging)
	case k.pl.spec.NICLatency > 0:
		c.phase = phLat
		k.wait(c, k.pl.spec.NICLatency)
	default:
		k.join(ci, c)
	}
}

// join enters the fabric once the latency has elapsed
// (network.Fabric.Transfer); an empty chunk moves nothing.
func (k *kernel) join(ci int, c *kcomp) {
	if c.bytes == 0 {
		c.phase = phR
		k.wait(c, k.pl.model.DeserializeTime(c.bytes))
		return
	}
	k.flows.Settle(k.now)
	k.flows.Join(c.prodNode, c.alloc.node, float64(c.bytes)).Tag = ci
	k.reallocate()
	c.phase = phFlow
}

// flowsDone is the fabric's completion event (network.Fabric.onEvent).
func (k *kernel) flowsDone() {
	k.flows.Settle(k.now)
	for _, fl := range k.flows.Sweep() {
		k.wait(&k.comps[fl.Tag], 0)
		k.flows.Release(fl)
	}
	k.reallocate()
}

// runKernel evaluates the plan's timeline. The caller has established
// that the options do not need the engine; ok is false when the kernel
// still cannot vouch for the result, and the engine must run instead.
func runKernel(pl *simPlan, opts SimOptions) (*trace.EnsembleTrace, bool) {
	cfg := dimesFabricConfig(pl, nil)
	if cfg.Validate() != nil {
		return nil, false
	}
	k := opts.World.acquireKernel()
	k.pl, k.now, k.timer.armed = pl, 0, false
	k.flows.Reset(cfg)

	tr := traceSkeleton(pl)
	total := 0
	for _, m := range tr.Members {
		total += 1 + len(m.Analyses)
	}
	if cap(k.comps) < total {
		// Keep the recycled generators of the components there were.
		k.comps = append(k.comps[:cap(k.comps)], make([]kcomp, total-cap(k.comps))...)
	}
	k.comps = k.comps[:total]
	n := pl.es.Steps
	// A scratch run's records go to recycled storage; every record the
	// kernel hands out is overwritten, so none needs clearing.
	st := opts.storage
	if st == nil {
		st = new(traceStorage)
	}
	stages := slices.Grow(st.stages[:0], 3*n*total)[:3*n*total]
	steps := slices.Grow(st.steps[:0], n*total)[:n*total]
	st.stages, st.steps = stages, steps
	ci := 0
	bind := func(ct *trace.ComponentTrace, alloc compAlloc, staging float64, jitIndex int64, member int) *kcomp {
		c := &k.comps[ci]
		*c = kcomp{
			ct: ct, alloc: alloc, staging: staging,
			compute:  pl.model.ComputeCounters(alloc.tenant, alloc.assess),
			jit:      opts.jitter(jitIndex, c.jit.rng),
			bytes:    pl.es.Members[member].Sim.BytesPerStep,
			prodNode: pl.sims[member].node,
			stages:   stages[3*n*ci : 3*n*ci : 3*n*(ci+1)],
			wake:     wake{0, int64(ci), true},
		}
		ct.Steps = steps[n*ci : n*ci : n*(ci+1)]
		ci++
		return c
	}
	for i, m := range tr.Members {
		simIdx := ci
		ss := pl.states[i]
		s := bind(m.Simulation, pl.sims[i], ss.W, int64(i)*131, i)
		s.sim, s.anas, s.items = simIdx, len(m.Analyses), len(m.Analyses)
		for j, at := range m.Analyses {
			bind(at, pl.anas[i][j], ss.Couplings[j].R, int64(i)*131+int64(j)+1, i).sim = simIdx
		}
	}
	k.seq = int64(total)

	for {
		// The next event: the armed wake-up (or fabric timer, next = -1)
		// smallest in (time, sequence). Components number in the tens; a
		// heap would only pay off past a few hundred.
		next, found := -1, k.timer.armed
		t, seq := k.timer.t, k.timer.seq
		for i := range k.comps {
			if c := &k.comps[i]; c.armed && (!found || c.t < t || (c.t == t && c.seq < seq)) {
				next, found, t, seq = i, true, c.t, c.seq
			}
		}
		if !found {
			break
		}
		k.now = t
		if next < 0 {
			k.timer.armed = false
			k.flowsDone()
			continue
		}
		c := &k.comps[next]
		c.armed = false
		if c.sim == next {
			k.resumeSim(c)
		} else {
			k.resumeAna(next, c)
		}
	}
	ok := true
	for i := range k.comps {
		c := &k.comps[i]
		ok = ok && c.phase == phDone
		*c = kcomp{jit: jitter{rng: c.jit.rng}} // the scratch keeps only its generators
	}
	k.pl = nil
	opts.World.releaseKernel(k)
	if !ok || tr.Validate() != nil {
		return nil, false
	}
	return tr, true
}

// jitter is a component's seeded multiplicative noise source: one draw per
// compute stage, 1 + Jitter·N(0,1) clamped to ±3σ (and to ≥ 0.5). The
// zero value always returns 1.
type jitter struct {
	rng       *rand.Rand
	j, lo, hi float64
}

// jitter returns the noise source of the component with the given stream
// index, re-seeding rng when one is supplied instead of allocating.
func (o SimOptions) jitter(componentIndex int64, rng *rand.Rand) jitter {
	if o.Jitter <= 0 {
		return jitter{rng: rng}
	}
	seed := o.Seed*7919 + componentIndex
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	return jitter{rng: rng, j: o.Jitter, lo: max(1-3*o.Jitter, 0.5), hi: 1 + 3*o.Jitter}
}

func (j *jitter) next() float64 {
	if j.j <= 0 {
		return 1
	}
	return min(max(1+j.j*j.rng.NormFloat64(), j.lo), j.hi)
}
