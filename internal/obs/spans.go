package obs

import (
	"io"
	"slices"
	"sort"
	"time"

	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// Span bridge: replays an obs event stream (virtual clock) as completed
// child spans under a parent span (wall clock), so every simulated
// component, stage, DTL transfer, and network flow lands in the job's
// distributed trace. The affine map wall = anchor + scale·virtual
// places the bridged spans inside the parent's window; with
// scale = parentWallDuration / makespan the DES spans tile the parent
// exactly, which is what makes the critical-path stage durations sum to
// the job's measured latency.

// Attribute keys a job's execute span carries so exporters can invert the
// bridge: the affine map's anchor (Unix ns) and scale, the simulated
// makespan (s), and whether the timeline kernel served the run.
const (
	AttrAnchorUnixNano = "des.anchorUnixNano"
	AttrScale          = "des.scale"
	AttrMakespanSec    = "des.makespanSec"
	AttrFastPath       = "des.fastpath"
)

// InverseMap returns the wall → virtual inverse of the affine map
// recorded on the execute span whose parent is jobSpan, so service spans
// can be placed on the obs export's virtual timeline. It returns nil when
// no such span carries a nonzero anchor and a positive scale — a cached
// or still-running job — and the export degrades to the events alone.
func InverseMap(spans []tracing.SpanData, jobSpan tracing.SpanID) func(time.Time) float64 {
	for _, d := range spans {
		if d.Kind != "execute" || d.Parent != jobSpan {
			continue
		}
		var anchorNano int64
		scale := 0.0
		for _, a := range d.Attrs {
			switch a.Key {
			case AttrAnchorUnixNano:
				anchorNano, _ = a.Value.(int64)
			case AttrScale:
				scale, _ = a.Value.(float64)
			}
		}
		if anchorNano == 0 || scale <= 0 {
			continue
		}
		anchor := time.Unix(0, anchorNano)
		return func(wt time.Time) float64 { return wt.Sub(anchor).Seconds() / scale }
	}
	return nil
}

// interval is one paired begin/end from the event stream.
type interval struct {
	name, kind string
	subject    string // owning component for stages
	start, end float64
	attrs      []tracing.Attr
}

// stageKey pairs a StageBegin with its StageEnd; pairKey pairs DTL
// operations (op, tier, producer and consumer node) and fabric flows (op
// "flow", link).
type stageKey struct{ subject, stage string }
type pairKey struct {
	op, name    string
	node, node2 int
}

func pairKeyOf(ev Event) pairKey {
	switch ev.Kind {
	case PutBegin, PutEnd:
		return pairKey{"put", ev.Detail, ev.Node, ev.Node2}
	case GetBegin, GetEnd:
		return pairKey{"get", ev.Detail, ev.Node, ev.Node2}
	}
	return pairKey{op: "flow", name: ev.Subject}
}

// spanCounts returns how many component, stage, and other spans
// BridgeSpans emits for events: one per opening event, closed or not.
func spanCounts(events []Event) (comps, stages, rest int) {
	for _, ev := range events {
		switch ev.Kind {
		case ProcStart:
			comps++
		case StageBegin:
			stages++
		case PutBegin, GetBegin, FlowStart, FaultInject, RetryAttempt, ComponentRestart, MemberDrop:
			rest++
		}
	}
	return comps, stages, rest
}

// DeferSpans is BridgeSpans postponed until the trace is first read
// (tracing.Store.Defer): recording a run costs one counting pass, and the
// first reader bridges the events through a scratch tracer. events stays
// the caller's (a recycled recorder's log): the store takes an exact-size
// copy if and when it admits the batch, and a refused batch copies
// nothing. Returns the spans deferred.
func DeferSpans(tr *tracing.Tracer, parent tracing.SpanContext, events []Event, anchor time.Time, scale float64) int {
	comps, stages, rest := spanCounts(events)
	return deferBridge(tr, parent, comps+stages+rest, anchor, scale, func() func() []Event {
		own := slices.Clone(events)
		return func() []Event { return own }
	})
}

// DeferTraceSpans defers the n component and stage spans of a finished
// trace — what a run with no live event stream shows for itself. The
// batch pins no trace: its first reader replays (FromTrace) the trace
// rebuild returns. Returns n.
func DeferTraceSpans(tr *tracing.Tracer, parent tracing.SpanContext, n int, rebuild func() *trace.EnsembleTrace, anchor time.Time, scale float64) int {
	return deferBridge(tr, parent, n, anchor, scale, func() func() []Event {
		return func() []Event { return FromTrace(rebuild()) }
	})
}

// deferBridge hands the span store a batch of n spans that bridges the
// events admit's result yields; admit runs only if the store takes the
// batch.
func deferBridge(tr *tracing.Tracer, parent tracing.SpanContext, n int, anchor time.Time, scale float64, admit func() func() []Event) int {
	tr.Store().Defer(parent.TraceID, n, func() func() []tracing.SpanData {
		events := admit()
		return func() []tracing.SpanData {
			scratch := tracing.NewTracer(tracing.NewStore(1, n))
			BridgeSpans(scratch, parent, events(), anchor, scale)
			return scratch.Store().Spans(parent.TraceID)
		}
	})
	return n
}

// BridgeSpans converts events into spans under parent using tr,
// mapping virtual seconds t to anchor + scale·t. Component spans
// (proc-start/end) become parents of their stage spans; DTL, flow, and
// fault events become direct children of parent. Unclosed begins are
// closed at the stream horizon. Returns the number of spans recorded;
// a nil tracer records nothing.
func BridgeSpans(tr *tracing.Tracer, parent tracing.SpanContext, events []Event, anchor time.Time, scale float64) int {
	if tr == nil || len(events) == 0 {
		return 0
	}
	if scale <= 0 {
		scale = 1
	}
	wall := func(t float64) time.Time {
		return anchor.Add(time.Duration(t * scale * float64(time.Second)))
	}

	horizon := 0.0
	for _, ev := range events {
		if ev.T > horizon {
			horizon = ev.T
		}
	}

	nc, ns, nr := spanCounts(events)
	comps := make([]interval, 0, nc)
	stages := make([]interval, 0, ns)
	rest := make([]interval, 0, nr)
	compOpen := map[string]int{}      // subject -> index into comps (open)
	stageOpen := map[stageKey][]int{} // stack of open stage indices
	pairOpen := map[pairKey][]int{}   // FIFO of open rest indices

	for _, ev := range events {
		switch ev.Kind {
		case ProcStart:
			compOpen[ev.Subject] = len(comps)
			comps = append(comps, interval{name: ev.Subject, kind: "component", subject: ev.Subject,
				start: ev.T, end: -1, attrs: []tracing.Attr{tracing.Int("node", ev.Node)}})
		case ProcEnd:
			if i, ok := compOpen[ev.Subject]; ok {
				comps[i].end = ev.T
				delete(compOpen, ev.Subject)
			}
		case StageBegin:
			key := stageKey{ev.Subject, ev.Detail}
			stageOpen[key] = append(stageOpen[key], len(stages))
			stages = append(stages, interval{name: ev.Detail, kind: "stage:" + ev.Detail,
				subject: ev.Subject, start: ev.T, end: -1,
				attrs: []tracing.Attr{tracing.String("component", ev.Subject), tracing.Int("node", ev.Node)}})
		case StageEnd:
			key := stageKey{ev.Subject, ev.Detail}
			if st := stageOpen[key]; len(st) > 0 {
				i := st[len(st)-1]
				stageOpen[key] = st[:len(st)-1]
				stages[i].end = ev.T
				if ev.Value > 0 {
					stages[i].attrs = append(stages[i].attrs, tracing.Float("bytes", ev.Value))
				}
			}
		case PutBegin, GetBegin:
			key := pairKeyOf(ev)
			pairOpen[key] = append(pairOpen[key], len(rest))
			rest = append(rest, interval{name: key.op + ":" + ev.Detail, kind: "dtl:" + key.op,
				start: ev.T, end: -1,
				attrs: []tracing.Attr{tracing.String("tier", ev.Detail), tracing.Float("bytes", ev.Value)}})
		case FlowStart:
			key := pairKeyOf(ev)
			pairOpen[key] = append(pairOpen[key], len(rest))
			rest = append(rest, interval{name: ev.Subject, kind: "net:flow",
				start: ev.T, end: -1,
				attrs: []tracing.Attr{tracing.String("link", ev.Subject), tracing.Float("bytes", ev.Value)}})
		case PutEnd, GetEnd, FlowEnd:
			key := pairKeyOf(ev)
			if q := pairOpen[key]; len(q) > 0 {
				i := q[0]
				pairOpen[key] = q[1:]
				rest[i].end = ev.T
			}
		case FaultInject, RetryAttempt, ComponentRestart, MemberDrop:
			name := ev.Kind.String()
			if ev.Detail != "" {
				name += ":" + ev.Detail
			}
			rest = append(rest, interval{name: name, kind: "fault",
				start: ev.T, end: ev.T,
				attrs: []tracing.Attr{tracing.String("subject", ev.Subject), tracing.Float("value", ev.Value)}})
		}
	}

	for _, ivs := range [][]interval{comps, stages, rest} {
		for i := range ivs {
			if ivs[i].end < 0 {
				ivs[i].end = horizon
			}
		}
	}

	// Emit components first so their contexts exist to parent the
	// stages; a stage whose component never emitted proc events hangs
	// directly off the parent.
	compCtx := make(map[string]tracing.SpanContext, len(comps))
	for _, c := range comps {
		sc := tr.SpanAt(parent, c.name, c.kind, wall(c.start), wall(c.end), c.attrs...)
		if _, dup := compCtx[c.subject]; !dup {
			compCtx[c.subject] = sc
		}
	}
	for _, s := range stages {
		p, ok := compCtx[s.subject]
		if !ok {
			p = parent
		}
		tr.SpanAt(p, s.name, s.kind, wall(s.start), wall(s.end), s.attrs...)
	}
	for _, r := range rest {
		tr.SpanAt(parent, r.name, r.kind, wall(r.start), wall(r.end), r.attrs...)
	}
	return len(comps) + len(stages) + len(rest)
}

// serviceSpanKinds are the span kinds merged into the Perfetto export;
// the DES-level kinds are skipped because the obs events already render
// them.
var serviceSpanKinds = map[string]bool{
	"server": true, "campaign": true, "job": true, "queue": true, "execute": true,
}

// WriteChromeTraceWithSpans is WriteChromeTrace plus a "service"
// process carrying the service-level spans (request, campaign, job,
// queue, execute), so traceview renders the serving-tier and DES-tier
// timelines in one view. toVirtual maps a span's wall-clock instant
// into virtual seconds (the inverse of the bridge's affine map); spans
// whose kind is DES-level are skipped — the obs events already cover
// them. Each span gets its own thread: service spans overlap (the
// request ends before the campaign), which the trace format's per-track
// LIFO nesting cannot express on one track.
func WriteChromeTraceWithSpans(w io.Writer, events []Event, spans []tracing.SpanData, toVirtual func(time.Time) float64) error {
	doc := buildChrome(events)

	var svc []tracing.SpanData
	for _, d := range spans {
		if serviceSpanKinds[d.Kind] {
			svc = append(svc, d)
		}
	}
	if len(svc) == 0 || toVirtual == nil {
		return encodeChrome(w, doc)
	}
	sort.SliceStable(svc, func(i, k int) bool {
		if !svc[i].Start.Equal(svc[k].Start) {
			return svc[i].Start.Before(svc[k].Start)
		}
		return svc[i].SpanID.String() < svc[k].SpanID.String()
	})

	maxNode := -1
	for _, ev := range events {
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
		if ev.Node2 > maxNode {
			maxNode = ev.Node2
		}
	}
	servicePID := maxNode + 7

	var meta, evs []chromeEvent
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", TS: 0, Pid: servicePID, Tid: 0,
		Args: &chromeArgs{Name: "service"},
	})
	for i, d := range svc {
		tid := i + 1
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", TS: 0, Pid: servicePID, Tid: tid,
			Args: &chromeArgs{Name: d.Kind + " " + d.Name},
		})
		start, end := toVirtual(d.Start), toVirtual(d.End)
		if end < start {
			end = start
		}
		evs = append(evs,
			chromeEvent{Name: d.Name, Cat: d.Kind, Ph: "B", TS: secondsToTS(start), Pid: servicePID, Tid: tid},
			chromeEvent{Name: d.Name, Cat: d.Kind, Ph: "E", TS: secondsToTS(end), Pid: servicePID, Tid: tid},
		)
	}

	var metaOut, evOut []chromeEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			metaOut = append(metaOut, ev)
		} else {
			evOut = append(evOut, ev)
		}
	}
	metaOut = append(metaOut, meta...)
	evOut = append(evOut, evs...)
	sort.SliceStable(evOut, func(i, k int) bool { return evOut[i].TS < evOut[k].TS })
	doc.TraceEvents = append(metaOut, evOut...)
	return encodeChrome(w, doc)
}
