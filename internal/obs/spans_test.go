package obs

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"ensemblekit/internal/telemetry/tracing"
)

// recordedStream builds a small synthetic run: one component with two
// stages, a DTL put, a network flow, and a fault.
func recordedStream() []Event {
	clock := 0.0
	r := NewRecorder(func() float64 { return clock })
	r.ProcStart("sim[0]", 0)
	r.StageBegin("sim[0]", "S", 0)
	clock = 4
	r.StageEnd("sim[0]", "S", 0, 0)
	r.StageBegin("sim[0]", "W", 0)
	r.PutBegin("burst-buffer", 0, 1<<20)
	clock = 6
	r.PutEnd("burst-buffer", 0, 1<<20)
	r.StageEnd("sim[0]", "W", 0, 1<<20)
	r.FlowStart("n0->n1", 0, 1, 1<<20)
	clock = 8
	r.FlowEnd("n0->n1", 0, 1, 1<<20)
	r.Fault("sim[0]", "staging", 0, 1)
	clock = 10
	r.ProcEnd("sim[0]", 0)
	return r.Events()
}

func TestBridgeSpans(t *testing.T) {
	tr := tracing.NewTracer(tracing.NewStore(0, 0))
	_, exec := tr.StartSpan(context.Background(), "execute", "execute")
	anchor := time.Unix(1000, 0)
	// 10 virtual seconds mapped onto 2 wall seconds.
	n := BridgeSpans(tr, exec.Context(), recordedStream(), anchor, 0.2)
	exec.EndAt(anchor.Add(2 * time.Second))

	// component + 2 stages + put + flow + fault = 6 bridged spans.
	if n != 6 {
		t.Fatalf("bridged %d spans, want 6", n)
	}
	spans := tr.Store().Spans(exec.Context().TraceID)
	if len(spans) != 7 {
		t.Fatalf("stored %d spans, want 7", len(spans))
	}
	byName := map[string]tracing.SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	comp := byName["sim[0]"]
	if comp.Kind != "component" || comp.Parent != exec.Context().SpanID {
		t.Fatalf("component span wrong: %+v", comp)
	}
	// Virtual [0,10] maps to wall [anchor, anchor+2s].
	if !comp.Start.Equal(anchor) || !comp.End.Equal(anchor.Add(2*time.Second)) {
		t.Fatalf("component window not scaled: %v..%v", comp.Start, comp.End)
	}
	s := byName["S"]
	if s.Kind != "stage:S" || s.Parent != comp.SpanID {
		t.Fatalf("stage span not under component: %+v", s)
	}
	if got := s.End.Sub(s.Start); got != 800*time.Millisecond {
		t.Fatalf("stage S wall duration = %v, want 800ms", got)
	}
	if byName["put:burst-buffer"].Kind != "dtl:put" {
		t.Fatalf("dtl span missing: %+v", byName)
	}
	if byName["n0->n1"].Kind != "net:flow" {
		t.Fatalf("flow span missing: %+v", byName)
	}
	f := byName["fault:staging"]
	if f.Kind != "fault" || !f.Start.Equal(f.End) {
		t.Fatalf("fault span wrong: %+v", f)
	}
	// Depth: execute -> component -> stage = 3 levels inside this trace.
	if got := tracing.Depth(spans); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
}

func TestBridgeSpansClosesUnfinishedAtHorizon(t *testing.T) {
	clock := 0.0
	r := NewRecorder(func() float64 { return clock })
	r.ProcStart("anl[0]", 1)
	r.StageBegin("anl[0]", "A", 1)
	clock = 5
	r.Gauge("anl[0]", "mem", 1, 1) // horizon advances; stage never ends

	tr := tracing.NewTracer(tracing.NewStore(0, 0))
	_, exec := tr.StartSpan(context.Background(), "execute", "execute")
	anchor := time.Unix(0, 0)
	BridgeSpans(tr, exec.Context(), r.Events(), anchor, 1)
	exec.End()
	spans := tr.Store().Spans(exec.Context().TraceID)
	for _, d := range spans {
		if d.End.Before(d.Start) {
			t.Fatalf("span %q ends before it starts: %+v", d.Name, d)
		}
		if d.Name == "A" && !d.End.Equal(anchor.Add(5*time.Second)) {
			t.Fatalf("unclosed stage not clipped to horizon: %+v", d)
		}
	}
}

// TestDeferSpansCountsWhatBridgeEmits: the counting pass that sizes a
// deferred batch agrees with the bridge, closed stream or not, and a read
// of the trace finds exactly that many spans.
func TestDeferSpansCountsWhatBridgeEmits(t *testing.T) {
	unclosed := NewRecorder(func() float64 { return 1 })
	unclosed.ProcStart("ana[0]", 1)
	unclosed.StageBegin("ana[0]", "A", 1)
	unclosed.GetBegin("dimes", 0, 1, 64)
	for _, events := range [][]Event{recordedStream(), unclosed.Events(), nil} {
		tr := tracing.NewTracer(tracing.NewStore(0, 0))
		_, exec := tr.StartSpan(context.Background(), "execute", "execute")
		deferred := DeferSpans(tr, exec.Context(), events, time.Unix(1000, 0), 0.2)
		if eager := BridgeSpans(tracing.NewTracer(tracing.NewStore(0, 0)), exec.Context(), events, time.Unix(1000, 0), 0.2); deferred != eager {
			t.Fatalf("DeferSpans counted %d spans, BridgeSpans emits %d", deferred, eager)
		}
		exec.End()
		if n := len(tr.Store().Spans(exec.Context().TraceID)); n != deferred+1 {
			t.Fatalf("trace read back %d spans, want %d deferred + execute", n, deferred)
		}
	}
}

// TestDeferSpansCopiesEventsOnlyOnAdmission: the events stay the
// caller's. A batch the store refuses allocates nothing, so it cannot
// retain them; an admitted one holds its own copy, so the caller may
// recycle the log before anybody reads the trace.
func TestDeferSpansCopiesEventsOnlyOnAdmission(t *testing.T) {
	events := recordedStream()
	anchor := time.Unix(1000, 0)
	parent := tracing.SpanContext{TraceID: tracing.TraceID{1}, SpanID: tracing.SpanID{1}}

	refusing := tracing.NewTracer(tracing.NewStore(0, 2)) // the stream bridges to 6 spans
	DeferSpans(refusing, parent, events, anchor, 0.2)     // the trace's entry is made here
	if allocs := testing.AllocsPerRun(100, func() { DeferSpans(refusing, parent, events, anchor, 0.2) }); allocs != 0 {
		t.Fatalf("a refused batch allocates %v times, want 0", allocs)
	}
	if refusing.Store().TraceDropped(parent.TraceID) == 0 {
		t.Fatal("the store admitted a batch over its cap")
	}
	if spans := refusing.Store().Spans(parent.TraceID); len(spans) != 0 {
		t.Fatalf("refused batches left %d spans", len(spans))
	}

	admitting := tracing.NewTracer(tracing.NewStore(0, 0))
	n := DeferSpans(admitting, parent, events, anchor, 0.2)
	want := tracing.NewTracer(tracing.NewStore(0, 0))
	BridgeSpans(want, parent, events, anchor, 0.2)
	for i := range events { // the recorder is recycled: another job overwrites the log
		events[i] = Event{T: 99, Kind: ProcStart, Subject: "other"}
	}
	got, eager := admitting.Store().Spans(parent.TraceID), want.Store().Spans(parent.TraceID)
	if len(got) != n || len(eager) != n {
		t.Fatalf("read %d spans, eager bridge %d, want %d", len(got), len(eager), n)
	}
	for i := range got {
		if got[i].Name != eager[i].Name || got[i].Kind != eager[i].Kind || !got[i].Start.Equal(eager[i].Start) || !got[i].End.Equal(eager[i].End) {
			t.Fatalf("span %d built from a log the caller reused: %+v, want %+v", i, got[i], eager[i])
		}
	}
}

func TestBridgeSpansNilTracer(t *testing.T) {
	if n := BridgeSpans(nil, tracing.SpanContext{}, recordedStream(), time.Time{}, 1); n != 0 {
		t.Fatalf("nil tracer bridged %d spans", n)
	}
}

func TestWriteChromeTraceWithSpans(t *testing.T) {
	events := recordedStream()
	tr := tracing.NewTracer(tracing.NewStore(0, 0))
	ctx, req := tr.StartSpan(context.Background(), "POST /v1/campaigns", "server")
	ctx, job := tr.StartSpan(ctx, "job abc", "job")
	_, exec := tr.StartSpan(ctx, "execute", "execute")
	anchor := time.Unix(1000, 0)
	BridgeSpans(tr, exec.Context(), events, anchor, 0.2)
	exec.EndAt(anchor.Add(2 * time.Second))
	job.EndAt(anchor.Add(2 * time.Second))
	req.EndAt(anchor.Add(2 * time.Second))
	spans := tr.Store().Spans(req.Context().TraceID)

	toVirtual := func(wt time.Time) float64 { return wt.Sub(anchor).Seconds() / 0.2 }
	var buf bytes.Buffer
	if err := WriteChromeTraceWithSpans(&buf, events, spans, toVirtual); err != nil {
		t.Fatalf("WriteChromeTraceWithSpans: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"service"`, `"job abc"`, `"POST /v1/campaigns"`, `"sim[0]"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("merged trace missing %s:\n%s", want, out)
		}
	}

	// Without service spans (or mapping) the output degrades to the
	// plain export byte-for-byte.
	var plain, degraded bytes.Buffer
	if err := WriteChromeTrace(&plain, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTraceWithSpans(&degraded, events, nil, toVirtual); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), degraded.Bytes()) {
		t.Fatal("no-span merge diverges from WriteChromeTrace")
	}
}

func TestBridgeScaleMapsMakespanOntoWallWindow(t *testing.T) {
	// The invariant the critical path depends on: with
	// scale = wallDuration/makespan the bridged spans tile the parent.
	events := recordedStream()
	makespan := 10.0
	wallDur := 3.5
	tr := tracing.NewTracer(tracing.NewStore(0, 0))
	_, exec := tr.StartSpan(context.Background(), "execute", "execute")
	anchor := time.Unix(500, 0)
	BridgeSpans(tr, exec.Context(), events, anchor, wallDur/makespan)
	exec.EndAt(anchor.Add(time.Duration(wallDur * float64(time.Second))))
	spans := tr.Store().Spans(exec.Context().TraceID)
	var comp tracing.SpanData
	for _, d := range spans {
		if d.Kind == "component" {
			comp = d
		}
	}
	if got := comp.End.Sub(comp.Start).Seconds(); math.Abs(got-wallDur) > 1e-9 {
		t.Fatalf("component wall duration = %v, want %v", got, wallDur)
	}
}

// TestInverseMap: the inverse is read from the execute span under the
// given job span only, and only when its anchor and a positive scale are
// both recorded.
func TestInverseMap(t *testing.T) {
	anchor := time.Unix(1000, 0)
	job, other := tracing.SpanID{7: 1}, tracing.SpanID{7: 2}
	execute := func(parent tracing.SpanID, attrs ...tracing.Attr) tracing.SpanData {
		return tracing.SpanData{SpanID: tracing.SpanID{7: 9}, Parent: parent, Kind: "execute", Attrs: attrs}
	}
	anchorAttr := tracing.Int64(AttrAnchorUnixNano, anchor.UnixNano())
	for _, tc := range []struct {
		name  string
		spans []tracing.SpanData
		found bool
	}{
		{"found", []tracing.SpanData{
			{SpanID: job, Kind: "job"},
			execute(job, anchorAttr, tracing.Float(AttrScale, 0.5), tracing.Float(AttrMakespanSec, 4)),
		}, true},
		{"missing scale", []tracing.SpanData{execute(job, anchorAttr)}, false},
		{"missing anchor", []tracing.SpanData{execute(job, tracing.Float(AttrScale, 0.5))}, false},
		{"zero scale", []tracing.SpanData{execute(job, anchorAttr, tracing.Float(AttrScale, 0))}, false},
		{"negative scale", []tracing.SpanData{execute(job, anchorAttr, tracing.Float(AttrScale, -1))}, false},
		{"execute under another parent", []tracing.SpanData{
			execute(other, anchorAttr, tracing.Float(AttrScale, 0.5)),
		}, false},
		{"another parent first", []tracing.SpanData{
			execute(other, tracing.Int64(AttrAnchorUnixNano, 1), tracing.Float(AttrScale, 3)),
			execute(job, anchorAttr, tracing.Float(AttrScale, 0.5)),
		}, true},
		{"no spans", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			toVirtual := InverseMap(tc.spans, job)
			if (toVirtual != nil) != tc.found {
				t.Fatalf("found %v, want %v", toVirtual != nil, tc.found)
			}
			if !tc.found {
				return
			}
			// Wall = anchor + 0.5·virtual, so 2 s of wall is 4 s virtual.
			if got := toVirtual(anchor.Add(2 * time.Second)); got != 4 {
				t.Errorf("toVirtual(anchor+2s) = %v, want 4", got)
			}
			if got := toVirtual(anchor); got != 0 {
				t.Errorf("toVirtual(anchor) = %v, want 0", got)
			}
		})
	}
}
