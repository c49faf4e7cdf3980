package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// Execute runs one job to completion in the calling goroutine — the serial
// path the service parallelizes: the summary a worker caches plus the
// trace, byte-identical to a direct runtime.RunSimulated of the same inputs.
func Execute(spec JobSpec) (*Result, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	tr, _, err := runSpec(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	res, err := derive(hash, spec.Placement, tr)
	if res != nil {
		res.Trace = tr
	}
	return res, err
}

// simOptions is the spec's simulated-backend options with its fault plan.
func (spec JobSpec) simOptions() runtime.SimOptions {
	opts := spec.Sim.Options()
	opts.Faults = spec.Faults
	return opts
}

// needsEngine reports whether the spec needs more than the timeline
// kernel (runtime.SimOptions.NeedsEngine). It is the one predicate behind
// both how a job runs (executeSpec attaches the engine's event recorder)
// and where it runs (runRouted keeps every other job on the node that
// received it).
func (spec JobSpec) needsEngine() bool {
	return spec.simOptions().NeedsEngine()
}

// runSpec simulates the spec into its trace: rec, when non-nil, attaches
// the live obs recorder, and world (shared plans and arenas: an execution
// aid, never an input) serves the run.
func runSpec(spec JobSpec, rec *obs.Recorder, world *runtime.World) (*trace.EnsembleTrace, runtime.RunInfo, error) {
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
// the run was served. A kernel-served run writes no trace: the kernel's
// summary sink yields the result (summarize). An engine-served run's
// trace is summarized (derive) and dropped. When ctx carries a recording
// span of tracer (the worker's execute span) the run is observed: its
// simulated timeline becomes child spans under that span, built when the
// trace is first read (tracing.Store.Defer), so a job nobody inspects
// never pays for them. A spec that needs the engine
// (runtime.SimOptions.NeedsEngine) runs with a recycled obs recorder
// attached, and the event stream yields component, stage, DTL, flow, and
// fault spans; the store copies the events if it admits the batch, and
// the log goes back to the pool either way. Every other spec's component
// and stage spans derive from its trace, which the first reader re-runs
// from the spec. The affine map wall = anchor + scale·virtual with
// scale = wallDuration/makespan tiles the simulated timeline onto the
// measured execution window, so the critical path's stage durations sum
// to the job's real latency; its parameters go on the execute span (the
// obs.Attr* keys, plus whether the kernel served the run) so exporters
// can invert it (obs.InverseMap).
func executeSpec(ctx context.Context, tracer *tracing.Tracer, hash string, spec JobSpec, world *runtime.World) (*Result, runtime.RunInfo, error) {
	var span *tracing.Span // nil (a no-op) on an unobserved run
	var rec *obs.Recorder
	if sp := tracing.SpanFromContext(ctx); tracer != nil && sp.Recording() {
		span = sp
		if spec.needsEngine() {
			rec = recorders.Get().(*obs.Recorder)
		}
	}
	opts := spec.simOptions()
	opts.Recorder = rec
	opts.World = world
	anchor := time.Now()
	sum, tr, info, err := runtime.RunSimulatedSummary(spec.Cluster, spec.Placement, spec.Ensemble, opts)
	wallSec := time.Since(anchor).Seconds()
	if err != nil {
		// A failed run may have left processes that still hold rec; it is
		// not recycled.
		span.SetAttr(tracing.Float(obs.AttrMakespanSec, 0))
		return nil, info, err
	}
	if span != nil {
		var makespan float64
		if sum != nil {
			makespan = sum.Makespan
		} else {
			makespan = tr.Makespan()
		}
		scale := 1.0
		if makespan > 0 && wallSec > 0 {
			scale = wallSec / makespan
		}
		span.SetAttr(
			tracing.Int64(obs.AttrAnchorUnixNano, anchor.UnixNano()),
			tracing.Float(obs.AttrScale, scale),
			tracing.Float(obs.AttrMakespanSec, makespan),
			tracing.Bool(obs.AttrFastPath, info.FastPath))
		if rec != nil {
			obs.DeferSpans(tracer, span.Context(), rec.Events(), anchor, scale)
			rec.Reset()
			recorders.Put(rec)
		} else {
			obs.DeferTraceSpans(tracer, span.Context(), spec.traceSpans(), func() *trace.EnsembleTrace {
				if tr, _, err := runSpec(spec, nil, world); err == nil {
					return tr // byte-identical to this run's
				}
				return &trace.EnsembleTrace{}
			}, anchor, scale)
		}
	}
	if sum != nil {
		res, err := summarize(hash, spec.Placement, sum)
		return res, info, err
	}
	res, err := derive(hash, spec.Placement, tr)
	return res, info, err
}

// traceSpans counts the component and stage spans of the spec's complete
// trace: per component, one span plus three per step.
func (spec JobSpec) traceSpans() int {
	return spec.components() * (1 + 3*spec.Ensemble.Steps)
}

// derive summarizes a finished trace: surviving efficiencies (Eq. 3),
// F(P^{U,A,P}) over the survivors, the drop mask and the job's ledger.
func derive(hash string, p placement.Placement, tr *trace.EnsembleTrace) (*Result, error) {
	effs, err := core.Efficiencies(tr.SurvivingMembers())
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return result(hash, p, effs, tr.DroppedMembers(), tr.Makespan(), accounting.FromTrace(tr))
}

// summarize is derive over the kernel's summary of a run, which drops no
// member: the same Result, bit for bit, as derive of the run's trace.
func summarize(hash string, p placement.Placement, sum *runtime.Summary) (*Result, error) {
	effs, err := core.StateEfficiencies(sum.States)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return result(hash, p, effs, nil, sum.Makespan, accounting.FromStageCoreSeconds(sum.CoreSeconds))
}

// result assembles a Result: F(P^{U,A,P}) over the surviving members'
// efficiencies, with the drop mask, makespan and ledger.
func result(hash string, p placement.Placement, effs []float64, dropped []int, makespan float64, ledger accounting.JobLedger) (*Result, error) {
	if len(effs) == 0 {
		return nil, fmt.Errorf("campaign: no surviving members in %q", p.Name)
	}
	f, err := indicators.Objective(p.Without(dropped), effs, indicators.StageUAP)
	if err != nil {
		return nil, err
	}
	return &Result{Hash: hash, Efficiencies: effs, Objective: f, Makespan: makespan,
		Dropped: len(dropped), DroppedMembers: dropped, Ledger: ledger}, nil
}
