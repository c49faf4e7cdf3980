package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ensemblekit/internal/chunk"
	"ensemblekit/internal/dtl"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/kernels"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/trace"
)

// RealOptions configures the real-execution backend: actual molecular
// dynamics and eigenvalue analyses over the real in-memory staging area,
// all on the local machine. Placement still matters for the indicator
// arithmetic (node sets, CP, M) but carries no performance meaning
// locally — that is what the simulated backend is for.
type RealOptions struct {
	// Steps is the number of in situ steps.
	Steps int
	// Stride is the number of MD steps per in situ step.
	Stride int
	// FramesPerChunk is the number of frames sampled (evenly) within each
	// stride window and batched into one chunk — the paper's simulation
	// "periodically sends in-memory generated frames". Default 1.
	FramesPerChunk int
	// LJ configures the molecular-dynamics engine (zero value:
	// kernels.DefaultLJConfig).
	LJ kernels.LJConfig
	// Eigen configures the analysis kernel (zero value:
	// kernels.DefaultEigenConfig).
	Eigen kernels.EigenConfig
	// MaxCores caps the worker goroutines per component (0: GOMAXPROCS).
	MaxCores int
	// Timeout bounds the whole execution (0: no bound).
	Timeout time.Duration
	// Faults optionally injects a declarative fault plan (see
	// internal/faults). The real backend honours staging-failure rules
	// (tier "mem") and node crashes (mapped to wall-clock timers that
	// kill every member with a component on the node); network windows
	// and stragglers are simulation-only and are ignored here.
	Faults *faults.Plan
	// Resilience configures recovery: staging retries with wall-clock
	// backoff, per-attempt staging timeouts, and the degradation mode.
	// Crash-restarts are simulation-only (RestartLimit is ignored): a
	// real crashed process has no virtual clock to resume on, so a crash
	// here always escalates to the degradation mode.
	Resilience Resilience
}

func (o RealOptions) normalized() RealOptions {
	if o.Steps <= 0 {
		o.Steps = 5
	}
	if o.Stride <= 0 {
		o.Stride = 20
	}
	if o.LJ == (kernels.LJConfig{}) {
		o.LJ = kernels.DefaultLJConfig()
	}
	if o.Eigen == (kernels.EigenConfig{}) {
		o.Eigen = kernels.DefaultEigenConfig()
	}
	if o.FramesPerChunk <= 0 {
		o.FramesPerChunk = 1
	}
	if o.FramesPerChunk > o.Stride {
		o.FramesPerChunk = o.Stride
	}
	if o.MaxCores <= 0 {
		o.MaxCores = runtime.GOMAXPROCS(0)
	}
	return o
}

// RunReal executes the ensemble for real: one goroutine per component,
// genuine LJ dynamics, genuine chunk serialization through the in-memory
// DTL, genuine power-iteration analyses, wall-clock stage timings. The
// returned trace has the same shape as the simulated backend's (hardware
// counters are zero — documented behaviour: portable Go cannot read PMUs).
//
// Partial-trace contract: on timeout, cancellation, or any component
// failure, RunReal returns the partial trace recorded up to the failure
// alongside the non-nil error — every completed step and the failed
// component's Err annotation are preserved, never discarded. Under the
// DropMember degradation mode, member-scoped failures do not error the
// run at all: the run completes, dropped members carry their cause in
// the trace, and aggregation excludes them via SurvivingMembers.
func RunReal(p placement.Placement, opts RealOptions) (*trace.EnsembleTrace, error) {
	opts = opts.normalized()
	if len(p.Members) == 0 {
		return nil, fmt.Errorf("runtime: placement %q has no members", p.Name)
	}
	for i, m := range p.Members {
		if len(m.Analyses) == 0 {
			return nil, fmt.Errorf("runtime: member %d has no analyses", i)
		}
	}
	if err := opts.LJ.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Eigen.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Resilience.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	res := opts.Resilience.normalized()
	inj := faults.NewInjector(opts.Faults)

	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// Per-member contexts let the drop-member policy wind down a single
	// member while the rest of the ensemble keeps running.
	memberCtx := make([]context.Context, len(p.Members))
	memberCancel := make([]context.CancelFunc, len(p.Members))
	for i := range p.Members {
		memberCtx[i], memberCancel[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range memberCancel {
			c()
		}
	}()

	store := dtl.NewMem()
	for i, m := range p.Members {
		if err := store.Register(i, len(m.Analyses)); err != nil {
			return nil, err
		}
	}

	tr := &trace.EnsembleTrace{Backend: "real", Config: p.Name}
	for i, m := range p.Members {
		mt := &trace.MemberTrace{Index: i}
		mt.Simulation = &trace.ComponentTrace{
			Name: fmt.Sprintf("m%d.sim", i), Kind: trace.KindSimulation, Member: i,
			Nodes: m.Simulation.NodeSet(), Cores: m.Simulation.Cores,
		}
		for j, a := range m.Analyses {
			mt.Analyses = append(mt.Analyses, &trace.ComponentTrace{
				Name: fmt.Sprintf("m%d.ana%d", i, j), Kind: trace.KindAnalysis,
				Member: i, Analysis: j,
				Nodes: a.NodeSet(), Cores: a.Cores,
			})
		}
		tr.Members = append(tr.Members, mt)
	}

	epoch := time.Now()
	since := func() float64 { return time.Since(epoch).Seconds() }
	cores := func(want int) int {
		if want > opts.MaxCores {
			return opts.MaxCores
		}
		if want < 1 {
			return 1
		}
		return want
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel() // wind down every component
	}
	dropped := make([]bool, len(p.Members))
	dropMember := func(i int, cause string) {
		mu.Lock()
		if dropped[i] {
			mu.Unlock()
			return
		}
		dropped[i] = true
		for _, c := range tr.Members[i].Components() {
			c.Dropped = cause
		}
		mu.Unlock()
		memberCancel[i]() // wind down this member only
	}
	// compFail routes a member-scoped failure through the degradation
	// policy. Failures caused by the run-wide context (timeout, abort)
	// always stay global: a timed-out run must error, not silently drop
	// every member.
	compFail := func(member int, err error) {
		if res.Mode == DropMember && ctx.Err() == nil {
			dropMember(member, err.Error())
			return
		}
		fail(err)
	}

	// Node crashes map to wall-clock timers killing every member with a
	// component on the node.
	var crashTimers []*time.Timer
	for _, c := range inj.Crashes() {
		c := c
		crashTimers = append(crashTimers, time.AfterFunc(
			time.Duration(c.At*float64(time.Second)), func() {
				for i := range p.Members {
					if !memberOnNode(p.Members[i], c.Node) {
						continue
					}
					if res.Mode == DropMember {
						dropMember(i, fmt.Sprintf("node %d crashed", c.Node))
					} else {
						fail(fmt.Errorf("node %d crashed", c.Node))
					}
				}
			}))
	}
	defer func() {
		for _, t := range crashTimers {
			t.Stop()
		}
	}()

	for i := range p.Members {
		i := i
		mt := tr.Members[i]
		mctx := memberCtx[i]
		simCores := cores(p.Members[i].Simulation.Cores)

		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := mt.Simulation
			ct.Start = since()
			defer func() {
				mu.Lock()
				ct.End = since()
				mu.Unlock()
			}()
			cfg := opts.LJ
			cfg.Seed += int64(i) // distinct trajectories per member
			sim, err := kernels.NewLJSimulator(cfg)
			if err != nil {
				compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
				return
			}
			for step := 0; step < opts.Steps; step++ {
				rec := trace.StepRecord{Index: step}
				// S: integrate one stride window, sampling frames evenly.
				sStart := since()
				frames := make([]chunk.Frame, 0, opts.FramesPerChunk)
				per := opts.Stride / opts.FramesPerChunk
				left := opts.Stride
				var advErr error
				for f := 0; f < opts.FramesPerChunk; f++ {
					n := per
					if f == opts.FramesPerChunk-1 {
						n = left // absorb the remainder in the last window
					}
					var frame chunk.Frame
					frame, advErr = sim.Advance(mctx, n, simCores)
					if advErr != nil {
						break
					}
					left -= n
					frames = append(frames, frame)
				}
				if advErr != nil {
					recordErr(&mu, ct, rec, advErr)
					compFail(i, fmt.Errorf("%s: %w", ct.Name, advErr))
					return
				}
				rec.Stages = append(rec.Stages, trace.StageRecord{
					Stage: trace.StageS, Start: sStart, Duration: since() - sStart,
				})
				// I^S: the no-buffering protocol.
				isStart := since()
				err := store.AwaitWritable(mctx, i)
				if err != nil {
					recordErr(&mu, ct, rec, err)
					compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
					return
				}
				rec.Stages = append(rec.Stages, trace.StageRecord{
					Stage: trace.StageIS, Start: isStart, Duration: since() - isStart,
				})
				// W: serialize and stage (injected faults retried under
				// the resilience policy).
				wStart := since()
				ck := &chunk.Chunk{
					ID:       chunk.ID{Member: i, Step: step},
					Producer: ct.Name,
					Frames:   frames,
				}
				data, err := ck.Encode()
				wRetries := 0
				if err == nil {
					wRetries, err = stagingDo(mctx, inj, res, since, func(octx context.Context) error {
						return store.Put(octx, ck.ID, data)
					})
				}
				if err != nil {
					recordErr(&mu, ct, rec, err)
					compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
					return
				}
				rec.Stages = append(rec.Stages, trace.StageRecord{
					Stage: trace.StageW, Start: wStart, Duration: since() - wStart,
					Counters: trace.Counters{Bytes: int64(len(data))},
					Retries:  wRetries,
				})
				mu.Lock()
				ct.Steps = append(ct.Steps, rec)
				mu.Unlock()
			}
		}()

		for j := range p.Members[i].Analyses {
			j := j
			anaCores := cores(p.Members[i].Analyses[j].Cores)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ct := mt.Analyses[j]
				analyzer, err := kernels.NewEigenAnalyzer(opts.Eigen)
				if err != nil {
					compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
					return
				}
				// Lead-in: the component's timeline starts at its first
				// available chunk.
				if err := store.Await(mctx, chunk.ID{Member: i, Step: 0}); err != nil {
					compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
					return
				}
				ct.Start = since()
				defer func() {
					mu.Lock()
					ct.End = since()
					mu.Unlock()
				}()
				for step := 0; step < opts.Steps; step++ {
					rec := trace.StepRecord{Index: step}
					// R: fetch and deserialize (injected faults retried
					// under the resilience policy).
					rStart := since()
					id := chunk.ID{Member: i, Step: step}
					var data []byte
					rRetries, err := stagingDo(mctx, inj, res, since, func(octx context.Context) error {
						var gerr error
						data, gerr = store.Get(octx, id)
						return gerr
					})
					var ck *chunk.Chunk
					if err == nil {
						ck, err = chunk.Decode(data)
					}
					if err != nil {
						recordErr(&mu, ct, rec, err)
						compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
						return
					}
					rec.Stages = append(rec.Stages, trace.StageRecord{
						Stage: trace.StageR, Start: rStart, Duration: since() - rStart,
						Counters: trace.Counters{Bytes: int64(len(data))},
						Retries:  rRetries,
					})
					// A: the eigenvalue collective variable.
					aStart := since()
					cv, err := analyzer.Analyze(mctx, ck.Frames, anaCores)
					if err != nil {
						recordErr(&mu, ct, rec, err)
						compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
						return
					}
					mu.Lock()
					ct.Outputs = append(ct.Outputs, cv)
					mu.Unlock()
					rec.Stages = append(rec.Stages, trace.StageRecord{
						Stage: trace.StageA, Start: aStart, Duration: since() - aStart,
					})
					// I^A: wait for the next chunk.
					iaStart := since()
					if step < opts.Steps-1 {
						if err := store.Await(mctx, chunk.ID{Member: i, Step: step + 1}); err != nil {
							recordErr(&mu, ct, rec, err)
							compFail(i, fmt.Errorf("%s: %w", ct.Name, err))
							return
						}
					}
					rec.Stages = append(rec.Stages, trace.StageRecord{
						Stage: trace.StageIA, Start: iaStart, Duration: since() - iaStart,
					})
					mu.Lock()
					ct.Steps = append(ct.Steps, rec)
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return tr, fmt.Errorf("runtime: real execution failed: %w", firstErr)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: produced invalid trace: %w", err)
	}
	return tr, nil
}

// stagingDo runs one staging operation under the resilience policy:
// injected faults (tier "mem") and per-attempt timeouts consume the
// retry budget, with exponential wall-clock backoff between attempts.
// It returns the number of recovered attempts for the stage record.
func stagingDo(ctx context.Context, inj *faults.Injector, res Resilience,
	since func() float64, op func(context.Context) error) (int, error) {
	backoff := res.RetryBackoff
	retries := 0
	for {
		err := inj.StagingOp("mem", since())
		if err == nil {
			octx := ctx
			var cancel context.CancelFunc
			if res.StageTimeout > 0 {
				octx, cancel = context.WithTimeout(ctx,
					time.Duration(res.StageTimeout*float64(time.Second)))
			}
			err = op(octx)
			if cancel != nil {
				cancel()
			}
			if err == nil {
				return retries, nil
			}
			if ctx.Err() != nil {
				return retries, err // run or member wound down: not retryable
			}
		}
		transient := errors.Is(err, faults.ErrInjected) || errors.Is(err, context.DeadlineExceeded)
		if !transient || retries >= res.StagingRetries {
			return retries, err
		}
		retries++
		if backoff > 0 {
			t := time.NewTimer(time.Duration(backoff * float64(time.Second)))
			select {
			case <-ctx.Done():
				t.Stop()
				return retries, ctx.Err()
			case <-t.C:
			}
			backoff *= res.BackoffFactor
		}
	}
}

// memberOnNode reports whether any component of the member occupies the
// node (crash blast radius for the real backend).
func memberOnNode(m placement.Member, node int) bool {
	for _, n := range m.Simulation.NodeSet() {
		if n == node {
			return true
		}
	}
	for _, a := range m.Analyses {
		for _, n := range a.NodeSet() {
			if n == node {
				return true
			}
		}
	}
	return false
}

// recordErr stores a failed partial step in the component trace.
func recordErr(mu *sync.Mutex, ct *trace.ComponentTrace, rec trace.StepRecord, err error) {
	mu.Lock()
	defer mu.Unlock()
	ct.Err = err.Error()
	if len(rec.Stages) > 0 {
		ct.Steps = append(ct.Steps, rec)
	}
}
