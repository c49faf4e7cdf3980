package runtime

import (
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/dtl"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/network"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/sim"
	"ensemblekit/internal/trace"
)

// Tier names accepted by SimOptions.
const (
	TierDimes       = "dimes"
	TierBurstBuffer = "burstbuffer"
	TierPFS         = "pfs"
)

// SimOptions configures the simulated backend.
type SimOptions struct {
	// Tier selects the DTL implementation: TierDimes (default),
	// TierBurstBuffer, or TierPFS.
	Tier string
	// TierBandwidth is the aggregate bandwidth of the burst buffer or PFS
	// endpoint in bytes/s (defaults: 20 GB/s burst buffer, 5 GB/s PFS).
	TierBandwidth float64
	// Jitter adds multiplicative noise to compute stages: each stage is
	// scaled by 1 + Jitter*N(0,1), clamped. Zero means deterministic.
	Jitter float64
	// Seed drives the jitter (deterministic per seed).
	Seed int64
	// Model optionally overrides the performance model (nil uses
	// cluster.NewModel of the spec).
	Model *cluster.Model
	// Faults optionally injects a declarative fault plan (staging
	// failures, network-degradation windows, node crashes, stragglers;
	// see internal/faults). Same plan + same seed => identical faults and
	// byte-identical traces. A deterministic failure of the n-th staging
	// operation is faults.StagingFault{FailAtOp: n}.
	Faults *faults.Plan
	// Resilience configures the recovery policy applied around the fault
	// plan (retries, timeouts, crash-restarts, degradation mode). The
	// zero value recovers nothing and fails fast, reproducing the
	// historical behaviour exactly.
	Resilience Resilience
	// StagingSlots is the staging buffer depth per member: the simulation
	// may run up to StagingSlots chunks ahead of the slowest analysis.
	// The paper assumes no buffering (1 slot, Section 3.1); larger values
	// explore the relaxation the paper leaves to future work. Default 1.
	StagingSlots int
	// Topology optionally adds dragonfly group structure to the
	// interconnect (nil keeps the flat fabric).
	Topology *network.Dragonfly
	// Recorder optionally attaches a live instrumentation bus: the engine,
	// the DTL, the fabric, and the stage loop emit obs events to it as the
	// run unfolds. Nil (the default) disables instrumentation; attaching a
	// recorder never changes scheduling, so results are bit-identical
	// either way.
	Recorder *obs.Recorder

	// World optionally supplies shared immutable campaign state: frozen
	// plans (machine, model, allocations, assessments) keyed by
	// configuration, plus an arena of recycled simulation environments.
	// Nil rebuilds everything per run (the historical behaviour). World
	// is an execution hint, never an input: results are bit-identical
	// with and without it, and the campaign hash ignores it.
	World *World
	// FastPath is ignored: the timeline kernel serves every run that does
	// not need the engine (see NeedsEngine) without being asked. The field
	// remains only because the frozen benchmark probes set it.
	FastPath bool
}

// NeedsEngine reports whether a run with these options must execute on the
// event engine, whatever the placement: it injects faults, guards stages
// with a timeout, buffers more than one staged chunk, stages through a
// tier other than flat DIMES, or (invalid options) has an error to report.
// The timeline kernel serves every other run — unless a Recorder is
// attached, which asks for the engine's event stream; a caller that only
// wants spans for the trace consults NeedsEngine before attaching one.
func (o SimOptions) NeedsEngine() bool {
	return o.Faults.Validate() != nil || o.needsEngine()
}

func (o SimOptions) needsEngine() bool {
	return !o.Faults.Empty() || o.tier() != TierDimes || o.Topology != nil ||
		normSlots(o.StagingSlots) != 1 || o.Resilience.StageTimeout > 0
}

func (o SimOptions) tier() string {
	if o.Tier == "" {
		return TierDimes
	}
	return o.Tier
}

// RunSimulated executes the ensemble on the simulated platform and returns
// its trace. Component failures (e.g. injected staging errors) abort the
// whole ensemble: sibling components are interrupted, the partial trace is
// returned alongside the error.
func RunSimulated(spec cluster.Spec, p placement.Placement, es EnsembleSpec, opts SimOptions) (*trace.EnsembleTrace, error) {
	tr, _, err := RunSimulatedInfo(spec, p, es, opts)
	return tr, err
}

// RunInfo reports how a simulated run was executed: what served it and
// what it cost. Purely observational — the same inputs produce the same
// trace bytes regardless of what RunInfo says.
type RunInfo struct {
	// FastPath reports the run was served by the timeline kernel, with
	// zero DES events.
	FastPath bool
	// PlanReused reports the frozen plan came from the World cache
	// instead of being rebuilt.
	PlanReused bool
	// DESEvents counts events dispatched by the engine serving the run
	// (zero when the kernel served it).
	DESEvents int64
}

// RunSimulatedInfo is RunSimulated plus execution metadata. The timeline
// kernel serves every run that neither needs the engine nor asked for its
// event stream; the engine serves the rest. Both produce the same
// EnsembleTrace.
func RunSimulatedInfo(spec cluster.Spec, p placement.Placement, es EnsembleSpec, opts SimOptions) (*trace.EnsembleTrace, RunInfo, error) {
	pl, info, err := acquirePlan(spec, p, es, opts)
	if err != nil {
		return nil, info, err
	}
	if opts.Recorder == nil && !opts.needsEngine() {
		if tr, ok := runKernel(pl, opts); ok {
			info.FastPath = true
			return tr, info, nil
		}
	}
	tr, events, err := runJoint(pl, opts, faults.NewInjector(opts.Faults))
	info.DESEvents = events
	return tr, info, err
}

// RunSimulatedSummary is RunSimulatedInfo for a caller that reads only
// what a job result reads. When the timeline kernel serves the run it
// writes no trace and returns the run's Summary (the summary sink); when
// the engine serves it, it returns the engine's trace and no Summary.
func RunSimulatedSummary(spec cluster.Spec, p placement.Placement, es EnsembleSpec, opts SimOptions) (*Summary, *trace.EnsembleTrace, RunInfo, error) {
	pl, info, err := acquirePlan(spec, p, es, opts)
	if err != nil {
		return nil, nil, info, err
	}
	if opts.Recorder == nil && !opts.needsEngine() {
		if sum, ok := summarizeKernel(pl, opts); ok {
			info.FastPath = true
			return sum, nil, info, nil
		}
	}
	tr, events, err := runJoint(pl, opts, faults.NewInjector(opts.Faults))
	info.DESEvents = events
	return nil, tr, info, err
}

// acquirePlan validates a run's inputs and returns its frozen plan:
// borrowed from the World when one is attached (a model override is not
// content-addressable, so it always builds fresh and never caches). A
// cache hit skips re-validation — the same spec/placement/ensemble were
// validated when the plan was built; a miss validates in the historical
// order first.
func acquirePlan(spec cluster.Spec, p placement.Placement, es EnsembleSpec, opts SimOptions) (*simPlan, RunInfo, error) {
	var info RunInfo
	slots := normSlots(opts.StagingSlots)
	tierName := opts.tier()
	var pl *simPlan
	var key [32]byte
	cacheable := opts.World != nil && opts.Model == nil
	if cacheable {
		if key, cacheable = planKey(spec, p, es, tierName, slots); cacheable {
			pl = opts.World.cachedPlan(key)
		}
	}
	if pl != nil {
		info.PlanReused = true
	} else if err := validateInputs(spec, p, es); err != nil {
		return nil, info, err
	}
	if err := opts.Resilience.Validate(); err != nil {
		return nil, info, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, info, err
	}
	if pl == nil {
		var err error
		pl, err = buildPlan(spec, p, es, tierName, slots, opts.Model)
		if err != nil {
			return nil, info, err
		}
		if cacheable {
			opts.World.storePlan(key, pl)
		}
	}
	return pl, info, nil
}

// traceSkeleton builds the EnsembleTrace shell (component identities,
// nodes, cores) for a plan.
func traceSkeleton(pl *simPlan) *trace.EnsembleTrace {
	tr := &trace.EnsembleTrace{Backend: "simulated", Config: pl.p.Name}
	for i := range pl.p.Members {
		mt := &trace.MemberTrace{Index: i}
		mt.Simulation = &trace.ComponentTrace{
			Name: pl.sims[i].tenant.ID, Kind: trace.KindSimulation, Member: i,
			Nodes: []int{pl.sims[i].node}, Cores: pl.sims[i].tenant.Cores,
		}
		for j := range pl.anas[i] {
			mt.Analyses = append(mt.Analyses, &trace.ComponentTrace{
				Name: pl.anas[i][j].tenant.ID, Kind: trace.KindAnalysis, Member: i, Analysis: j,
				Nodes: []int{pl.anas[i][j].node}, Cores: pl.anas[i][j].tenant.Cores,
			})
		}
		tr.Members = append(tr.Members, mt)
	}
	return tr
}

// dimesFabricConfig is the interconnect DIMES remote reads cross.
func dimesFabricConfig(pl *simPlan, topology *network.Dragonfly) network.Config {
	return network.Config{
		Nodes:        pl.spec.Nodes,
		NICBandwidth: pl.spec.NICBandwidth,
		Latency:      pl.spec.NICLatency,
		PerFlowCap:   pl.model.RemoteStageBW,
		Topology:     topology,
	}
}

// buildTier constructs the DTL tier and its fabric on an environment. The
// unknown-tier error reports the raw option string, as it always has.
func buildTier(env *sim.Env, pl *simPlan, opts SimOptions) (dtl.Tier, *network.Fabric, error) {
	var tier dtl.Tier
	var fab *network.Fabric
	var err error
	switch opts.tier() {
	case TierDimes:
		fab, err = network.NewFabric(env, dimesFabricConfig(pl, opts.Topology))
		if err != nil {
			return nil, nil, err
		}
		tier = dtl.NewDimes(pl.model, fab)
	case TierBurstBuffer:
		bw := opts.TierBandwidth
		if bw <= 0 {
			bw = 6e9 // aggregate SSD-tier throughput
		}
		cfg := dtl.BurstBufferFabricConfig(pl.spec, bw)
		cfg.Latency = 1e-3 // device + software-stack latency
		fab, err = network.NewFabric(env, cfg)
		if err != nil {
			return nil, nil, err
		}
		tier = dtl.NewBurstBuffer(pl.model, fab, pl.spec.Nodes)
	case TierPFS:
		bw := opts.TierBandwidth
		if bw <= 0 {
			bw = 2e9 // effective per-job share of the shared file system
		}
		fab, err = network.NewFabric(env, dtl.PFSFabricConfig(pl.spec, bw))
		if err != nil {
			return nil, nil, err
		}
		tier = dtl.NewPFS(pl.model, fab, pl.spec.Nodes, 0.01)
	default:
		return nil, nil, fmt.Errorf("runtime: unknown DTL tier %q", opts.Tier)
	}
	return tier, fab, nil
}

// runJoint executes the whole ensemble on one event loop — the historical
// execution path, now borrowing the frozen plan and (when a World is
// attached) a recycled environment from the arena.
func runJoint(pl *simPlan, opts SimOptions, inj *faults.Injector) (*trace.EnsembleTrace, int64, error) {
	env := opts.World.acquireEnv()
	env.SetRecorder(opts.Recorder)
	tier, fab, err := buildTier(env, pl, opts)
	if err != nil {
		return nil, 0, err
	}
	if inj.Enabled() {
		tier = &faultedTier{Tier: tier, inj: inj, env: env}
		for _, w := range inj.NetworkWindows() {
			if err := fab.Degrade(w.Start, w.End, w.Factor); err != nil {
				return nil, 0, err
			}
		}
	}

	tr := traceSkeleton(pl)
	run := &simRun{
		env:     env,
		tier:    tier,
		model:   pl.model,
		spec:    pl.spec,
		es:      pl.es,
		opts:    opts,
		res:     opts.Resilience.normalized(),
		inj:     inj,
		rec:     env.Recorder(),
		members: tr.Members,
		crashed: make(map[string]bool),
		dropped: make(map[int]bool),
	}
	// Launch all processes; they all start at t=0 (the paper's concurrent
	// members starting simultaneously).
	run.memberProcs = make([][]*sim.Proc, len(pl.p.Members))
	for i := range pl.p.Members {
		run.launchMember(i, pl.sims[i], pl.anas[i], tr.Members[i])
	}
	// Crash schedule: at each crash instant, interrupt every component
	// still running on the node (they are all blocked in a stage wait —
	// the DES runs callbacks only between process executions).
	for _, c := range inj.Crashes() {
		c := c
		env.At(c.At, func() { run.crashNode(c.Node) })
	}
	runErr := env.Run()
	events := env.Stats().EventsDispatched
	// A component failure interrupts siblings, so the run drains cleanly;
	// any deadlock or panic is a runtime bug surfaced to the caller.
	if runErr != nil {
		return tr, events, fmt.Errorf("runtime: simulation engine: %w", runErr)
	}
	if run.failure != nil {
		return tr, events, fmt.Errorf("runtime: component failed: %w", run.failure)
	}
	if err := tr.Validate(); err != nil {
		return nil, events, fmt.Errorf("runtime: produced invalid trace: %w", err)
	}
	// Only a fully clean run returns its environment to the arena.
	opts.World.releaseEnv(env)
	return tr, events, nil
}

// faultedTier interposes the fault plan on a DTL tier: each staging
// operation first consults the injector and surfaces faults.ErrInjected
// (with an instrumentation event) before touching the real tier.
type faultedTier struct {
	dtl.Tier
	inj *faults.Injector
	env *sim.Env
}

func (t *faultedTier) Write(p *sim.Proc, producerNode int, bytes int64) error {
	if err := t.inj.StagingOp(t.Tier.Name(), p.Now()); err != nil {
		t.env.Recorder().Fault(t.Tier.Name(), "staging", producerNode, float64(bytes))
		return err
	}
	return t.Tier.Write(p, producerNode, bytes)
}

func (t *faultedTier) Read(p *sim.Proc, producerNode, consumerNode int, bytes int64) error {
	if err := t.inj.StagingOp(t.Tier.Name(), p.Now()); err != nil {
		t.env.Recorder().Fault(t.Tier.Name(), "staging", consumerNode, float64(bytes))
		return err
	}
	return t.Tier.Read(p, producerNode, consumerNode, bytes)
}

// simRun carries the shared state of one simulated execution.
type simRun struct {
	env     *sim.Env
	tier    dtl.Tier
	model   *cluster.Model
	spec    cluster.Spec
	es      EnsembleSpec
	opts    SimOptions
	res     Resilience       // normalized resilience policy
	inj     *faults.Injector // nil when no faults are injected
	rec     *obs.Recorder    // nil when instrumentation is off
	procs   []*sim.Proc
	failure error

	// members mirrors the trace skeleton for drop annotations.
	members []*trace.MemberTrace
	// memberProcs groups processes by member for drop-member interrupts.
	memberProcs [][]*sim.Proc
	// comps lists every running component for crash targeting.
	comps []runningComp
	// crashed flags components whose node crashed; the component's error
	// handler consumes the flag to tell a crash interrupt apart from a
	// sibling wind-down or a stage timeout.
	crashed map[string]bool
	// dropped flags members removed by the drop-member policy.
	dropped map[int]bool
}

// runningComp pairs a live process with its identity for crash targeting.
type runningComp struct {
	proc *sim.Proc
	name string
	node int
}

// crashNode delivers a node crash: every component still running on the
// node is flagged and interrupted. What happens next (restart, drop,
// abort) is the per-component resilience policy's decision.
func (r *simRun) crashNode(node int) {
	for _, c := range r.comps {
		if c.node != node || c.proc.Done() {
			continue
		}
		r.crashed[c.name] = true
		r.rec.Fault(c.name, "crash", node, 0)
		c.proc.Interrupt("node crash")
	}
}

// dropMember removes member i from the run: all its component traces are
// annotated with the cause and its processes are interrupted so the
// survivors keep the fabric and the DTL to themselves. The run completes
// without error; the drop is visible only in the trace and the event
// stream.
func (r *simRun) dropMember(i int, cause string) {
	if r.dropped[i] {
		return
	}
	r.dropped[i] = true
	r.rec.MemberDropped(i, cause)
	for _, c := range r.members[i].Components() {
		c.Dropped = cause
	}
	for _, p := range r.memberProcs[i] {
		if !p.Done() {
			p.Interrupt("member dropped")
		}
	}
}

// Stage taxonomy names shared with the obs event stream; precomputed so an
// emission with a nil recorder costs only the branch inside the method.
var (
	stageNameS  = trace.StageS.String()
	stageNameIS = trace.StageIS.String()
	stageNameW  = trace.StageW.String()
	stageNameR  = trace.StageR.String()
	stageNameA  = trace.StageA.String()
	stageNameIA = trace.StageIA.String()
)

// coreLabel names a node's core pool in resource events.
func coreLabel(node int) string { return fmt.Sprintf("n%d.cores", node) }

// fail records the first component failure and interrupts every other
// process so the run winds down instead of deadlocking.
func (r *simRun) fail(err error) {
	if r.failure == nil {
		r.failure = err
	}
	for _, p := range r.procs {
		if !p.Done() {
			p.Interrupt("sibling component failed")
		}
	}
}

// compAlloc is a component's machine tenant, its node index, and its
// static assessment against its co-location context.
type compAlloc struct {
	tenant *cluster.Tenant
	node   int
	assess cluster.Assessment
}

// launchMember starts the simulation process and the K analysis processes
// of member i, wired together with the synchronous no-buffering protocol.
func (r *simRun) launchMember(i int, simA compAlloc, anaA []compAlloc, mt *trace.MemberTrace) {
	k := len(anaA)
	n := r.es.Steps
	// writeTokens carries read-completion permits: the simulation needs K
	// permits before each write; readers deposit one permit per completed
	// read. Priming with K x slots lets the simulation run `slots` chunks
	// ahead; slots = 1 is the paper's synchronous no-buffering protocol.
	slots := r.opts.StagingSlots
	if slots <= 0 {
		slots = 1
	}
	writeTokens := sim.NewStore(r.env)
	rec := r.env.Recorder()
	if rec.Enabled() {
		writeTokens.SetLabel(fmt.Sprintf("m%d.writeTokens", i))
	}
	for t := 0; t < k*slots; t++ {
		writeTokens.Offer()
	}
	// announce[j] tells analysis j that a chunk is staged.
	announce := make([]*sim.Store, k)
	for j := range announce {
		announce[j] = sim.NewStore(r.env)
		if rec.Enabled() {
			announce[j].SetLabel(fmt.Sprintf("m%d.announce%d", i, j))
		}
	}

	bytes := r.es.Members[i].Sim.BytesPerStep
	clock := r.spec.ClockHz

	// Simulation process.
	simTrace := mt.Simulation
	simJitter := r.opts.jitter(int64(i)*131, jitter{})
	simCores := coreLabel(simA.node)
	simProc := r.env.Go(simTrace.Name, func(p *sim.Proc) error {
		cc := &compCtx{r: r, p: p, ct: simTrace, node: simA.node, member: i}
		// Stage operations are hoisted out of the step loop: each is one
		// closure for the component's whole run, with per-step parameters
		// (sDur) passed through a captured local, so the loop body itself
		// allocates nothing per step.
		var sDur float64
		waitS := func() error { return p.Wait(sDur) }
		getToken := func() error { return writeTokens.Get(p) }
		writeOp := func() error { return r.tier.Write(p, simA.node, bytes) }
		// Stage records for all steps share one flat backing (3 per step:
		// S, I^S, W — error paths record fewer, never more, so the backing
		// never reallocates and every rec.Stages stays valid).
		stageBuf := make([]trace.StageRecord, 0, 3*n)
		simTrace.Steps = make([]trace.StepRecord, 0, n)
		simTrace.Start = p.Now()
		r.rec.ResourceAcquire(simCores, simA.node, float64(simA.tenant.Cores))
		defer func() {
			simTrace.End = p.Now()
			r.rec.ResourceRelease(simCores, simA.node, float64(simA.tenant.Cores))
		}()
		for step := 0; step < n; step++ {
			rec := trace.StepRecord{Index: step}
			base := len(stageBuf)
			// S: compute (stragglers dilate the modeled duration).
			sStart := p.Now()
			sDur = simA.assess.ComputeTime * simJitter.next() * r.inj.Slowdown(simTrace.Name, sStart)
			r.rec.StageBegin(simTrace.Name, stageNameS, simA.node)
			sRetries, sRecovered, err := cc.attempt(stageNameS, false, waitS)
			r.rec.StageEnd(simTrace.Name, stageNameS, simA.node, 0)
			if err != nil {
				stageBuf = append(stageBuf, trace.StageRecord{
					Stage: trace.StageS, Start: sStart, Duration: p.Now() - sStart, Retries: sRetries,
				})
				rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
				simTrace.Steps = append(simTrace.Steps, rec)
				return cc.fail(err)
			}
			counters := r.model.ComputeCounters(simA.tenant, simA.assess)
			counters.Cycles = sDur * clock * float64(simA.tenant.Cores)
			stageBuf = append(stageBuf, trace.StageRecord{
				Stage: trace.StageS, Start: sStart, Duration: stageSpan(p, sStart, sDur, sRecovered),
				Counters: counters, Retries: sRetries,
			})
			// I^S: wait until all K analyses have read the previous chunk's data.
			isStart := p.Now()
			isRetries := 0
			r.rec.StageBegin(simTrace.Name, stageNameIS, simA.node)
			var isErr error
			for t := 0; t < k && isErr == nil; t++ {
				var ret int
				ret, _, isErr = cc.attempt(stageNameIS, false, getToken)
				isRetries += ret
			}
			r.rec.StageEnd(simTrace.Name, stageNameIS, simA.node, 0)
			stageBuf = append(stageBuf, trace.StageRecord{
				Stage: trace.StageIS, Start: isStart, Duration: p.Now() - isStart, Retries: isRetries,
			})
			if isErr != nil {
				rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
				simTrace.Steps = append(simTrace.Steps, rec)
				return cc.fail(isErr)
			}
			// W: stage the chunk out (each retry attempt re-stages).
			wStart := p.Now()
			r.rec.StageBegin(simTrace.Name, stageNameW, simA.node)
			wRetries, _, err := cc.attempt(stageNameW, true, writeOp)
			r.rec.StageEnd(simTrace.Name, stageNameW, simA.node, float64(bytes))
			wDur := p.Now() - wStart
			if err != nil {
				stageBuf = append(stageBuf, trace.StageRecord{
					Stage: trace.StageW, Start: wStart, Duration: wDur, Retries: wRetries,
				})
				rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
				simTrace.Steps = append(simTrace.Steps, rec)
				return cc.fail(err)
			}
			stageBuf = append(stageBuf, trace.StageRecord{
				Stage: trace.StageW, Start: wStart, Duration: wDur,
				Counters: r.model.IOCounters(simA.tenant, bytes, wDur), Retries: wRetries,
			})
			rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
			simTrace.Steps = append(simTrace.Steps, rec)
			for j := range announce {
				announce[j].Offer()
			}
		}
		return nil
	})
	r.procs = append(r.procs, simProc)
	r.memberProcs[i] = append(r.memberProcs[i], simProc)
	r.comps = append(r.comps, runningComp{proc: simProc, name: simTrace.Name, node: simA.node})

	// Analysis processes.
	for j := 0; j < k; j++ {
		j := j
		anaTrace := mt.Analyses[j]
		alloc := anaA[j]
		assess := alloc.assess
		anaJitter := r.opts.jitter(int64(i)*131+int64(j)+1, jitter{})
		anaCores := coreLabel(alloc.node)
		proc := r.env.Go(anaTrace.Name, func(p *sim.Proc) error {
			cc := &compCtx{r: r, p: p, ct: anaTrace, node: alloc.node, member: i}
			// Hoisted stage operations (see the simulation process above).
			var aDur float64
			waitA := func() error { return p.Wait(aDur) }
			getChunk := func() error { return announce[j].Get(p) }
			readOp := func() error { return r.tier.Read(p, simA.node, alloc.node, bytes) }
			// Flat stage-record backing: 3 per step (R, A, I^A).
			stageBuf := make([]trace.StageRecord, 0, 3*n)
			anaTrace.Steps = make([]trace.StepRecord, 0, n)
			// Lead-in: wait for the first chunk; the component's own
			// timeline starts at its first read.
			if _, _, err := cc.attempt(stageNameR, false, getChunk); err != nil {
				return cc.fail(err)
			}
			anaTrace.Start = p.Now()
			r.rec.ResourceAcquire(anaCores, alloc.node, float64(alloc.tenant.Cores))
			defer func() {
				anaTrace.End = p.Now()
				r.rec.ResourceRelease(anaCores, alloc.node, float64(alloc.tenant.Cores))
			}()
			for step := 0; step < n; step++ {
				rec := trace.StepRecord{Index: step}
				base := len(stageBuf)
				// R: stage the chunk in (each retry attempt re-reads).
				rStart := p.Now()
				r.rec.StageBegin(anaTrace.Name, stageNameR, alloc.node)
				rRetries, _, err := cc.attempt(stageNameR, true, readOp)
				r.rec.StageEnd(anaTrace.Name, stageNameR, alloc.node, float64(bytes))
				rDur := p.Now() - rStart
				if err != nil {
					stageBuf = append(stageBuf, trace.StageRecord{
						Stage: trace.StageR, Start: rStart, Duration: rDur, Retries: rRetries,
					})
					rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
					anaTrace.Steps = append(anaTrace.Steps, rec)
					return cc.fail(err)
				}
				stageBuf = append(stageBuf, trace.StageRecord{
					Stage: trace.StageR, Start: rStart, Duration: rDur,
					Counters: r.model.IOCounters(alloc.tenant, bytes, rDur), Retries: rRetries,
				})
				// The data is consumed: permit the next write.
				writeTokens.Offer()
				// A: compute (stragglers dilate the modeled duration).
				aStart := p.Now()
				aDur = assess.ComputeTime * anaJitter.next() * r.inj.Slowdown(anaTrace.Name, aStart)
				r.rec.StageBegin(anaTrace.Name, stageNameA, alloc.node)
				aRetries, aRecovered, err := cc.attempt(stageNameA, false, waitA)
				r.rec.StageEnd(anaTrace.Name, stageNameA, alloc.node, 0)
				if err != nil {
					stageBuf = append(stageBuf, trace.StageRecord{
						Stage: trace.StageA, Start: aStart, Duration: p.Now() - aStart, Retries: aRetries,
					})
					rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
					anaTrace.Steps = append(anaTrace.Steps, rec)
					return cc.fail(err)
				}
				counters := r.model.ComputeCounters(alloc.tenant, assess)
				counters.Cycles = aDur * clock * float64(alloc.tenant.Cores)
				stageBuf = append(stageBuf, trace.StageRecord{
					Stage: trace.StageA, Start: aStart, Duration: stageSpan(p, aStart, aDur, aRecovered),
					Counters: counters, Retries: aRetries,
				})
				// I^A: wait for the next chunk (zero on the final step).
				iaStart := p.Now()
				iaRetries := 0
				r.rec.StageBegin(anaTrace.Name, stageNameIA, alloc.node)
				var iaErr error
				if step < n-1 {
					iaRetries, _, iaErr = cc.attempt(stageNameIA, false, getChunk)
				}
				r.rec.StageEnd(anaTrace.Name, stageNameIA, alloc.node, 0)
				stageBuf = append(stageBuf, trace.StageRecord{
					Stage: trace.StageIA, Start: iaStart, Duration: p.Now() - iaStart, Retries: iaRetries,
				})
				rec.Stages = stageBuf[base:len(stageBuf):len(stageBuf)]
				anaTrace.Steps = append(anaTrace.Steps, rec)
				if iaErr != nil {
					return cc.fail(iaErr)
				}
			}
			return nil
		})
		r.procs = append(r.procs, proc)
		r.memberProcs[i] = append(r.memberProcs[i], proc)
		r.comps = append(r.comps, runningComp{proc: proc, name: anaTrace.Name, node: alloc.node})
	}
}

// stageSpan returns the recorded duration of a compute stage: the modeled
// duration when the attempt was clean (preserving exact legacy trace
// bytes), the elapsed span when recovery time (retries, restarts) was
// folded in.
func stageSpan(p *sim.Proc, start, modeled float64, recovered bool) float64 {
	if !recovered {
		return modeled
	}
	return p.Now() - start
}

// compCtx carries the per-process resilience state of one running
// component: the stage-attempt loop implementing retries, timeouts, and
// crash-restarts lives here.
type compCtx struct {
	r      *simRun
	p      *sim.Proc
	ct     *trace.ComponentTrace
	node   int
	member int
	// timedOut flags that the current attempt was interrupted by its
	// stage-timeout guard (a field, not a per-attempt local, so the guard
	// closure below can be created once instead of escaping per attempt).
	timedOut bool
	// guard is the stage-timeout callback, created lazily on the first
	// guarded attempt and reused for every one after.
	guard func()
}

// attempt runs one stage operation under the resilience policy.
// Transient faults (injected staging failures, stage timeouts) consume
// the retry budget with exponential backoff elapsed on the virtual
// clock; a node crash consumes the component's restart budget, each
// restart waiting RestartDelay before resuming the interrupted stage
// (never a completed step). retries counts recovered transient attempts
// for the stage record, recovered reports whether any recovery time was
// folded into the stage, and a non-nil err is unrecoverable under the
// policy.
func (c *compCtx) attempt(stageName string, guarded bool, op func() error) (retries int, recovered bool, err error) {
	res := c.r.res
	backoff := res.RetryBackoff
	delay := 0.0 // pending recovery delay before the next attempt
	for {
		err = nil
		if delay > 0 {
			err = c.p.Wait(delay)
		}
		delay = 0
		c.timedOut = false
		if err == nil {
			var tm sim.Timer
			if guarded && res.StageTimeout > 0 {
				if c.guard == nil {
					c.guard = func() {
						c.timedOut = true
						c.p.Interrupt("stage timeout")
					}
				}
				tm = c.r.env.AtTimer(c.p.Now()+res.StageTimeout, c.guard)
			}
			err = op()
			tm.Cancel()
			if err == nil {
				return retries, recovered, nil
			}
		}
		switch {
		case c.r.crashed[c.ct.Name]:
			delete(c.r.crashed, c.ct.Name)
			if c.ct.Restarts >= res.RestartLimit {
				return retries, recovered, fmt.Errorf(
					"%s: node %d crashed (restart limit %d exhausted)", stageName, c.node, res.RestartLimit)
			}
			c.ct.Restarts++
			recovered = true
			c.r.rec.Restart(c.ct.Name, c.node, c.ct.Restarts)
			delay = res.RestartDelay
		case c.timedOut || errors.Is(err, faults.ErrInjected):
			if c.timedOut {
				c.r.rec.Fault(c.ct.Name, "timeout", c.node, res.StageTimeout)
			}
			if retries >= res.StagingRetries {
				if c.timedOut {
					return retries, recovered, fmt.Errorf(
						"%s: attempt timed out after %v s (retry budget %d exhausted)",
						stageName, res.StageTimeout, res.StagingRetries)
				}
				return retries, recovered, fmt.Errorf(
					"%s (retry budget %d exhausted): %w", stageName, res.StagingRetries, err)
			}
			retries++
			recovered = true
			c.r.rec.Retry(c.ct.Name, stageName, c.node, retries)
			delay = backoff
			backoff *= res.BackoffFactor
		default:
			return retries, recovered, err
		}
	}
}

// fail terminates the component under the degradation policy. Interrupt
// errors are a sibling wind-down, a member drop, or an engine stop: they
// pass through quietly with only the Err annotation. Anything else is a
// primary failure: FailFast aborts the ensemble, DropMember removes this
// component's member and lets the rest of the ensemble continue.
func (c *compCtx) fail(err error) error {
	c.ct.Err = err.Error()
	if errors.Is(err, sim.ErrInterrupted) {
		return nil
	}
	if c.r.res.Mode == DropMember {
		c.r.dropMember(c.member, fmt.Sprintf("%s: %v", c.ct.Name, err))
		return nil
	}
	c.r.fail(fmt.Errorf("%s: %w", c.ct.Name, err))
	return nil
}
