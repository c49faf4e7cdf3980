// Package metrics computes the paper's traditional metrics (Table 1) from
// execution traces, at the three levels of granularity the paper defines:
// ensemble component (execution time, LLC miss ratio, memory intensity,
// instructions per cycle), ensemble member (member makespan), and workflow
// ensemble (ensemble makespan).
package metrics

import (
	"errors"
	"math"

	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
)

// Component holds the component-level metrics of Table 1.
type Component struct {
	// Name identifies the component.
	Name string
	// Kind distinguishes simulations from analyses.
	Kind trace.Kind
	// Member is the owning ensemble member index.
	Member int
	// ExecutionTime is the time spent in the component.
	ExecutionTime float64
	// LLCMissRatio is LLC misses / LLC references.
	LLCMissRatio float64
	// MemoryIntensity is LLC misses / instructions.
	MemoryIntensity float64
	// IPC is instructions / cycles.
	IPC float64
}

// ForComponent computes the Table 1 component metrics from a trace.
// Counter-derived metrics are NaN when the trace carries no counters.
func ForComponent(c *trace.ComponentTrace) Component {
	total := c.TotalCounters()
	out := Component{
		Name:            c.Name,
		Kind:            c.Kind,
		Member:          c.Member,
		ExecutionTime:   c.ExecutionTime(),
		LLCMissRatio:    math.NaN(),
		MemoryIntensity: math.NaN(),
		IPC:             math.NaN(),
	}
	if total.LLCRefs > 0 {
		out.LLCMissRatio = total.LLCMisses / total.LLCRefs
	}
	if total.Instructions > 0 {
		out.MemoryIntensity = total.LLCMisses / total.Instructions
	}
	if total.Cycles > 0 {
		out.IPC = total.Instructions / total.Cycles
	}
	return out
}

// Member holds the member-level metric of Table 1.
type Member struct {
	// Index is the member index.
	Index int
	// Makespan is the timespan between the simulation start and the latest
	// analysis end.
	Makespan float64
}

// Ensemble aggregates all Table 1 metrics for one execution.
type Ensemble struct {
	// Config names the evaluated configuration.
	Config string
	// Components holds the component-level metrics, members in order,
	// simulation before analyses.
	Components []Component
	// Members holds the member makespans.
	Members []Member
	// Makespan is the workflow-ensemble makespan: the maximum member
	// makespan.
	Makespan float64
}

// FromTrace computes every Table 1 metric from an ensemble trace.
func FromTrace(t *trace.EnsembleTrace) (Ensemble, error) {
	if t == nil || len(t.Members) == 0 {
		return Ensemble{}, errors.New("metrics: empty trace")
	}
	out := Ensemble{Config: t.Config}
	for _, m := range t.Members {
		for _, c := range m.Components() {
			out.Components = append(out.Components, ForComponent(c))
		}
		out.Members = append(out.Members, Member{Index: m.Index, Makespan: m.Makespan()})
	}
	out.Makespan = t.Makespan()
	return out, nil
}

// Straggler is an ensemble member whose makespan exceeds the ensemble
// median by the detection threshold.
type Straggler struct {
	// Index is the member index.
	Index int
	// Makespan is the member's makespan.
	Makespan float64
	// Excess is (makespan - median) / median.
	Excess float64
}

// Stragglers identifies slow ensemble members: those whose makespan
// exceeds the median member makespan by more than the threshold fraction
// (e.g. 0.1 = 10%). The paper observes that spotting stragglers from
// traditional metrics requires "diligently inspecting and relating
// independent measurements" — this automates exactly that inspection,
// since stragglers determine the ensemble makespan.
func (e Ensemble) Stragglers(threshold float64) []Straggler {
	if threshold <= 0 {
		threshold = 0.1
	}
	ms := make([]float64, len(e.Members))
	for i, m := range e.Members {
		ms[i] = m.Makespan
	}
	median := stats.Median(ms)
	if math.IsNaN(median) || median <= 0 {
		return nil
	}
	var out []Straggler
	for _, m := range e.Members {
		excess := (m.Makespan - median) / median
		if excess > threshold {
			out = append(out, Straggler{Index: m.Index, Makespan: m.Makespan, Excess: excess})
		}
	}
	return out
}

// KindSummary summarizes one component-level metric across all components
// of a kind.
type KindSummary struct {
	Kind            trace.Kind
	ExecutionTime   stats.Summary
	LLCMissRatio    stats.Summary
	MemoryIntensity stats.Summary
	IPC             stats.Summary
}

// ByKind summarizes component metrics per kind (the form of the paper's
// Figure 3, which reports simulations and analyses separately).
func (e Ensemble) ByKind(kind trace.Kind) KindSummary {
	var execT, miss, intensity, ipc []float64
	for _, c := range e.Components {
		if c.Kind != kind {
			continue
		}
		execT = append(execT, c.ExecutionTime)
		if !math.IsNaN(c.LLCMissRatio) {
			miss = append(miss, c.LLCMissRatio)
		}
		if !math.IsNaN(c.MemoryIntensity) {
			intensity = append(intensity, c.MemoryIntensity)
		}
		if !math.IsNaN(c.IPC) {
			ipc = append(ipc, c.IPC)
		}
	}
	return KindSummary{
		Kind:            kind,
		ExecutionTime:   stats.Summarize(execT),
		LLCMissRatio:    stats.Summarize(miss),
		MemoryIntensity: stats.Summarize(intensity),
		IPC:             stats.Summarize(ipc),
	}
}
