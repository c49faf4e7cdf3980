package obs

import (
	"cmp"
	"fmt"
	"slices"

	"ensemblekit/internal/trace"
)

// FromTrace reconstructs an instrumentation event stream from a post-hoc
// execution trace. Live recording (SimOptions.Recorder) is richer — it
// sees queue depths, DTL latencies, and fabric flows — but FromTrace lets
// any stored trace.EnsembleTrace open in Perfetto
// and feed the utilization tables: component lifecycles become proc spans,
// stages become B/E pairs, and core allocations become per-node occupancy
// timelines.
func FromTrace(tr *trace.EnsembleTrace) []Event {
	comps := tr.Components()
	n := 0
	for _, c := range comps {
		n += 4 // acquire, proc start, proc end, release
		for _, step := range c.Steps {
			n += 2 * len(step.Stages)
		}
	}
	events := make([]Event, 0, n)
	for _, c := range comps {
		node := NoNode
		if len(c.Nodes) > 0 {
			node = c.Nodes[0]
		}
		start, end := c.Start, c.End
		for _, step := range c.Steps {
			if e := step.End(); e > end {
				end = e
			}
		}
		if end < start {
			end = start
		}
		if node != NoNode {
			events = append(events, Event{
				T: start, Kind: ResourceAcquire, Subject: fmt.Sprintf("n%d.cores", node),
				Node: node, Node2: NoNode, Value: float64(c.Cores),
			})
		}
		events = append(events, Event{T: start, Kind: ProcStart, Subject: c.Name, Node: node, Node2: NoNode})
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				events = append(events,
					Event{T: st.Start, Kind: StageBegin, Subject: c.Name, Detail: st.Stage.String(), Node: node, Node2: NoNode},
					Event{T: st.End(), Kind: StageEnd, Subject: c.Name, Detail: st.Stage.String(), Node: node, Node2: NoNode, Value: float64(st.Counters.Bytes)},
				)
			}
		}
		events = append(events, Event{T: end, Kind: ProcEnd, Subject: c.Name, Node: node, Node2: NoNode})
		if node != NoNode {
			events = append(events, Event{
				T: end, Kind: ResourceRelease, Subject: fmt.Sprintf("n%d.cores", node),
				Node: node, Node2: NoNode, Value: float64(c.Cores),
			})
		}
	}
	// Interleave the per-component streams into one global timeline; the
	// stable sort keeps each component's own B-before-E emission order at
	// equal timestamps.
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
	return events
}
