package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// Execute runs one job to completion in the calling goroutine — the serial
// path the service parallelizes. The returned result is exactly what a
// direct runtime.RunSimulated of the same inputs produces (the trace is
// byte-identical), plus the derived indicator quantities.
func Execute(spec JobSpec) (*Result, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	res, _, err := executeSpec(context.Background(), nil, hash, spec, nil)
	return res, err
}

// simOptions is the spec's simulated-backend options with its fault plan.
func (spec JobSpec) simOptions() runtime.SimOptions {
	opts := spec.Sim.Options()
	opts.Faults = spec.Faults
	return opts
}

// runSpec dispatches the spec to its backend: runtime.RunReal when the
// spec carries a RealConfig, runtime.RunSimulated otherwise. The fault
// plan and resilience policy are shared between backends; rec, when
// non-nil, attaches the live obs recorder. world (shared plans and arenas:
// an execution aid, never an input) applies only to the simulated backend.
func runSpec(spec JobSpec, rec *obs.Recorder, world *runtime.World) (*trace.EnsembleTrace, runtime.RunInfo, error) {
	if spec.Real != nil {
		ro := spec.Real.Options()
		ro.Faults = spec.Faults
		ro.Resilience = spec.Sim.Resilience
		ro.Recorder = rec
		tr, err := runtime.RunReal(spec.Placement, ro)
		return tr, runtime.RunInfo{}, err
	}
	opts := spec.simOptions()
	opts.Recorder = rec
	opts.World = world
	return runtime.RunSimulatedInfo(spec.Cluster, spec.Placement, spec.Ensemble, opts)
}

// recorders recycles the obs event logs of observed runs: a log keeps its
// capacity across jobs instead of growing from nil by doubling each time.
var recorders = sync.Pool{New: func() any { return obs.NewRecorder(nil) }}

// executeSpec is the one execution path: it runs a spec whose content
// address the caller already holds (admission hashed it) and reports how
// the run was served. When ctx carries a recording span of tracer (the
// worker's execute span) the run is observed: its simulated timeline
// becomes child spans under that span, built when the trace is first read
// (tracing.Store.Defer), so a job nobody inspects never pays for them. A
// spec that needs the engine (runtime.SimOptions.NeedsEngine, or the real
// backend) runs with a recycled obs recorder attached, and the event
// stream yields component, stage, DTL, flow, and fault spans; the store
// copies the events if it admits the batch, and the log goes back to the
// pool either way. Every other spec is served by the timeline kernel,
// which has no event stream: its component and stage spans derive from
// the result's own trace, and nothing is copied. The affine map wall =
// anchor + scale·virtual with scale = wallDuration/makespan tiles the
// simulated timeline onto the measured execution window, so the critical
// path's stage durations sum to the job's real latency; its parameters go
// on the execute span (des.anchorUnixNano, des.scale, des.makespanSec,
// plus des.fastpath, "served by the kernel") so exporters can invert it.
func executeSpec(ctx context.Context, tracer *tracing.Tracer, hash string, spec JobSpec, world *runtime.World) (*Result, runtime.RunInfo, error) {
	var span *tracing.Span // nil (a no-op) on an unobserved run
	var rec *obs.Recorder
	if sp := tracing.SpanFromContext(ctx); tracer != nil && sp.Recording() {
		span = sp
		if spec.Real != nil || spec.simOptions().NeedsEngine() {
			rec = recorders.Get().(*obs.Recorder)
		}
	}
	anchor := time.Now()
	tr, info, err := runSpec(spec, rec, world)
	wallSec := time.Since(anchor).Seconds()
	if err != nil {
		// A failed run may have left processes that still hold rec; it is
		// not recycled.
		span.SetAttr(tracing.Float("des.makespanSec", 0))
		return nil, info, err
	}
	if span != nil {
		makespan := tr.Makespan()
		scale := 1.0
		if makespan > 0 && wallSec > 0 {
			scale = wallSec / makespan
		}
		span.SetAttr(
			tracing.Int64("des.anchorUnixNano", anchor.UnixNano()),
			tracing.Float("des.scale", scale),
			tracing.Float("des.makespanSec", makespan),
			tracing.Bool("des.fastpath", info.FastPath))
		if rec != nil {
			obs.DeferSpans(tracer, span.Context(), rec.Events(), anchor, scale)
			rec.Reset()
			recorders.Put(rec)
		} else {
			obs.DeferTraceSpans(tracer, span.Context(), tr, anchor, scale)
		}
	}
	res, err := derive(hash, spec.Placement, tr)
	return res, info, err
}

// derive computes the paper's quantities from a finished trace: surviving
// efficiencies (Eq. 3), the full indicator report, and F(P^{U,A,P}).
func derive(hash string, p placement.Placement, tr *trace.EnsembleTrace) (*Result, error) {
	surviving := placement.Placement{Name: p.Name}
	var effs []float64
	dropped := 0
	for i, m := range tr.Members {
		if m.Dropped() {
			dropped++
			continue
		}
		ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
		if err != nil {
			return nil, fmt.Errorf("campaign: member %d: %w", i, err)
		}
		e, err := ss.Efficiency()
		if err != nil {
			return nil, fmt.Errorf("campaign: member %d: %w", i, err)
		}
		surviving.Members = append(surviving.Members, p.Members[i])
		effs = append(effs, e)
	}
	res := &Result{
		Hash:     hash,
		Trace:    tr,
		Makespan: tr.Makespan(),
		Dropped:  dropped,
	}
	if len(effs) == 0 {
		return nil, fmt.Errorf("campaign: no surviving members in %q", p.Name)
	}
	rep, err := indicators.FullReport(surviving, effs)
	if err != nil {
		return nil, err
	}
	res.Efficiencies = effs
	res.Report = rep
	res.Objective = rep.PerStage[indicators.StageUAP.String()]
	return res, nil
}
