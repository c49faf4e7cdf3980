package runtime

import (
	"slices"

	"ensemblekit/internal/core"
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
//
// A run writes to one of two sinks. The trace sink records every stage
// into an EnsembleTrace, for callers that read the trace. The summary sink
// keeps one duration per stage and reduces them, once the run ends, to
// what a job result reads (Summary); it checks each stage as
// trace.Validate checks a trace, so the kernel declines the same runs
// with either sink.

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
	alloc    compAlloc
	staging  float64 // the plan's W (sim) or co-located R (ana)
	jit      jitter
	sim      int   // index of the member's simulation
	anas     int   // sim: number of analyses (they follow it)
	prodNode int   // ana: the simulation's node
	bytes    int64 // chunk size
	// begin and end are the component's own timeline (trace Start, End).
	begin, end float64

	// The trace sink: ct receives the component's steps, stages its
	// stage records, compute the counters of its compute stages (Cycles
	// set per stage). ct is nil when the summary sink serves the run.
	ct      *trace.ComponentTrace
	stages  []trace.StageRecord
	compute trace.Counters
	// The summary sink: durs holds the component's three stages in stage
	// order, n durations each, indexed by step; check validates them.
	durs  []float64
	check stageCheck

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
	// durs backs the summary sink's per-component durations.
	durs []float64
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

// record closes c's stage in progress, begun at c.start, after dur.
func (k *kernel) record(c *kcomp, stage trace.Stage, dur float64) {
	if c.ct == nil {
		// S, I^S, W and R, A, I^A are each a component's stages 0, 1, 2.
		c.durs[int(stage)%3*k.pl.es.Steps+c.step] = dur
		c.check.stage(stage, c.start, dur)
		return
	}
	st := trace.StageRecord{Stage: stage, Start: c.start, Duration: dur}
	switch stage {
	case trace.StageS, trace.StageA:
		st.Counters = c.compute
		st.Counters.Cycles = dur * k.pl.spec.ClockHz * float64(c.alloc.tenant.Cores)
	case trace.StageW, trace.StageR:
		st.Counters = k.pl.model.IOCounters(c.alloc.tenant, c.bytes, dur)
	}
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

// begin starts c's own timeline.
func (k *kernel) begin(c *kcomp) {
	c.begin = k.now
	c.check.prevEnd = k.now
}

// finish ends c's timeline after its last step.
func (k *kernel) finish(c *kcomp) {
	c.end = k.now
	c.phase = phDone
}

// resumeSim runs simulation c from its wake-up to its next block.
func (k *kernel) resumeSim(c *kcomp) {
	switch c.phase {
	case phStart:
		k.begin(c)
		k.compute(c, phS)
		return
	case phS:
		k.record(c, trace.StageS, c.dur)
		// I^S: one token per analysis, each a read of the previous chunk's data.
		c.start, c.got = k.now, 0
	case phIS:
		c.got++
	case phW:
		k.record(c, trace.StageW, k.now-c.start)
		self := c.sim
		for a := self + 1; a <= self+c.anas; a++ {
			k.offer(&k.comps[a])
		}
		c.step++
		if c.step < k.pl.es.Steps {
			k.compute(c, phS)
		} else {
			k.finish(c)
		}
		return
	}
	for c.got < c.anas {
		if !c.take(phIS) {
			return
		}
		c.got++
	}
	k.record(c, trace.StageIS, k.now-c.start)
	c.start, c.phase = k.now, phW
	k.wait(c, c.staging)
}

// resumeAna runs analysis c (component index ci) from its wake-up to its
// next block.
func (k *kernel) resumeAna(ci int, c *kcomp) {
	switch c.phase {
	case phStart:
		// Lead-in: the component's own timeline starts at its first read.
		if !c.take(phLead) {
			return
		}
		fallthrough
	case phLead:
		k.begin(c)
		k.read(ci, c)
	case phLat:
		k.join(ci, c)
	case phFlow:
		c.phase = phR
		k.wait(c, k.pl.model.DeserializeTime(c.bytes))
	case phR:
		k.record(c, trace.StageR, k.now-c.start)
		// The data is consumed: permit the next write.
		k.offer(&k.comps[c.sim])
		k.compute(c, phA)
	case phA:
		k.record(c, trace.StageA, c.dur)
		// I^A: wait for the next chunk (zero on the final step).
		c.start = k.now
		if c.step < k.pl.es.Steps-1 && !c.take(phIA) {
			return
		}
		fallthrough
	case phIA:
		k.record(c, trace.StageIA, k.now-c.start)
		c.step++
		if c.step < k.pl.es.Steps {
			k.read(ci, c)
		} else {
			k.finish(c)
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

// runKernel evaluates the plan's timeline into its trace. The caller has
// established that the options do not need the engine; ok is false when
// the kernel still cannot vouch for the result, and the engine must run
// instead.
func runKernel(pl *simPlan, opts SimOptions) (*trace.EnsembleTrace, bool) {
	tr := traceSkeleton(pl)
	if _, ok := evalKernel(pl, opts, tr); !ok || tr.Validate() != nil {
		return nil, false
	}
	return tr, true
}

// summarizeKernel evaluates the plan's timeline into its Summary through
// the summary sink; ok is false exactly when runKernel's would be.
func summarizeKernel(pl *simPlan, opts SimOptions) (*Summary, bool) {
	return evalKernel(pl, opts, nil)
}

// evalKernel runs the kernel into tr's components (the trace sink) or,
// with a nil tr, into the summary sink, whose Summary it returns.
func evalKernel(pl *simPlan, opts SimOptions, tr *trace.EnsembleTrace) (*Summary, bool) {
	cfg := dimesFabricConfig(pl, nil)
	if cfg.Validate() != nil {
		return nil, false
	}
	k := opts.World.acquireKernel()
	k.pl, k.now, k.timer.armed = pl, 0, false
	k.flows.Reset(cfg)

	total := 0
	for i := range pl.p.Members {
		total += 1 + len(pl.anas[i])
	}
	if cap(k.comps) < total {
		// Keep the recycled generators of the components there were.
		k.comps = append(k.comps[:cap(k.comps)], make([]kcomp, total-cap(k.comps))...)
	}
	k.comps = k.comps[:total]
	n := pl.es.Steps
	// The sink's storage: trace records are the caller's, summary
	// durations the scratch's. Every slot is written before it is read,
	// so none needs clearing.
	var cts []*trace.ComponentTrace // the trace's components, in kernel order
	var stages []trace.StageRecord
	var steps []trace.StepRecord
	if tr != nil {
		cts = tr.Components()
		stages = make([]trace.StageRecord, 3*n*total)
		steps = make([]trace.StepRecord, n*total)
	} else {
		k.durs = slices.Grow(k.durs[:0], 3*n*total)[:3*n*total]
	}
	ci := 0
	bind := func(alloc compAlloc, staging float64, jitIndex int64, member int) *kcomp {
		c := &k.comps[ci]
		*c = kcomp{
			alloc: alloc, staging: staging,
			jit:      opts.jitter(jitIndex, c.jit),
			bytes:    pl.es.Members[member].Sim.BytesPerStep,
			prodNode: pl.sims[member].node,
			wake:     wake{0, int64(ci), true},
		}
		if cts != nil {
			c.ct = cts[ci]
			c.compute = pl.model.ComputeCounters(alloc.tenant, alloc.assess)
			c.stages = stages[3*n*ci : 3*n*ci : 3*n*(ci+1)]
			c.ct.Steps = steps[n*ci : n*ci : n*(ci+1)]
		} else {
			c.durs = k.durs[3*n*ci : 3*n*(ci+1) : 3*n*(ci+1)]
		}
		ci++
		return c
	}
	for i := range pl.p.Members {
		simIdx := ci
		ss := pl.states[i]
		s := bind(pl.sims[i], ss.W, int64(i)*131, i)
		s.sim, s.anas, s.items = simIdx, len(pl.anas[i]), len(pl.anas[i])
		for j := range pl.anas[i] {
			bind(pl.anas[i][j], ss.Couplings[j].R, int64(i)*131+int64(j)+1, i).sim = simIdx
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
		if c.ct != nil {
			c.ct.Start, c.ct.End = c.begin, c.end
		} else {
			ok = ok && c.check.close(c.end)
		}
	}
	var sum *Summary
	if ok && tr == nil {
		sum = k.summarize()
	}
	for i := range k.comps {
		c := &k.comps[i]
		*c = kcomp{jit: jitter{rng: c.jit.rng, src: c.jit.src}} // the scratch keeps only its generators
	}
	k.pl = nil
	opts.World.releaseKernel(k)
	return sum, ok
}

// Summary is a kernel-served run reduced to what a job result reads,
// equal bit for bit to what the same run's trace yields.
type Summary struct {
	// States holds each member's post-warm-up steady state
	// (core.FromMemberTrace of the member's trace).
	States []core.SteadyState
	// Makespan is the trace's (trace.EnsembleTrace.Makespan).
	Makespan float64
	// CoreSeconds is, per stage (indexed by trace.Stage), the sum of each
	// such stage's duration times its component's cores, over components
	// in trace order and each one's steps in order: the sums
	// accounting.FromTrace charges.
	CoreSeconds [trace.NumStages]float64
}

// summarize folds the summary sink's durations once the run has ended,
// in the orders the trace's readers use.
func (k *kernel) summarize() *Summary {
	pl, n := k.pl, k.pl.es.Steps
	sum := &Summary{States: make([]core.SteadyState, len(pl.p.Members))}
	// series is component c's stage at position pos (0–2).
	series := func(c *kcomp, pos int) []float64 { return c.durs[pos*n : (pos+1)*n] }
	var extract core.ExtractOptions
	ci := 0
	for i := range pl.p.Members {
		sim := &k.comps[ci]
		ss := core.SteadyState{
			S:         extract.SteadyMean(series(sim, 0)),
			W:         extract.SteadyMean(series(sim, 2)),
			Couplings: make([]core.Coupling, sim.anas),
		}
		end := k.comps[ci+1].end
		for j := range ss.Couplings {
			a := &k.comps[ci+1+j]
			ss.Couplings[j] = core.Coupling{R: extract.SteadyMean(series(a, 0)), A: extract.SteadyMean(series(a, 1))}
			if a.end > end {
				end = a.end
			}
		}
		sum.States[i] = ss
		if ms := end - sim.begin; ms > sum.Makespan {
			sum.Makespan = ms
		}
		ci += 1 + sim.anas
	}
	for ci := range k.comps {
		c := &k.comps[ci]
		first := trace.StageR
		if c.sim == ci {
			first = trace.StageS
		}
		cores := float64(c.alloc.tenant.Cores)
		for pos := range 3 {
			cs := &sum.CoreSeconds[first+trace.Stage(pos)]
			for _, d := range series(c, pos) {
				coreSec := cores * d
				*cs += coreSec
			}
		}
	}
	return sum
}

// stageCheck applies trace.Validate's checks to one component's stages as
// the summary sink records them: a valid stage, a non-negative duration,
// no stage starting before the previous one ended (1e-9 s slack), and an
// end no earlier than the last stage's.
type stageCheck struct {
	prevEnd float64 // the component's start, then its last stage's end
	bad     bool
}

func (s *stageCheck) stage(st trace.Stage, start, dur float64) {
	if !st.Valid() || dur < 0 || start < s.prevEnd-1e-9 {
		s.bad = true
	}
	s.prevEnd = start + dur
}

// close reports whether every stage passed and a component ending at end
// passes too.
func (s *stageCheck) close(end float64) bool {
	if end < s.prevEnd-1e-9 {
		s.bad = true
	}
	return !s.bad
}
