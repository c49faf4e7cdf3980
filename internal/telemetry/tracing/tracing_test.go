package tracing

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestTracer() *Tracer { return NewTracer(NewStore(0, 0)) }

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer()
	_, s := tr.StartSpan(context.Background(), "root", "server")
	h := s.Context().Traceparent()
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if sc != s.Context() {
		t.Fatalf("round trip: got %+v want %+v", sc, s.Context())
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero IDs
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7x01", // bad separator
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // non-hex version
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // upper-case version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",      // upper-case trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",      // upper-case parent-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",      // upper-case flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",      // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more", // version 00 with trailing data
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more", // version ff, trailing data
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	// A later version may carry more fields after a separator.
	ok := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-anything"
	if _, err := ParseTraceparent(ok); err != nil {
		t.Errorf("ParseTraceparent(%q): %v", ok, err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x", "server")
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	// All span methods are no-ops on nil.
	s.SetAttr(String("k", "v"))
	s.SetError(context.Canceled)
	s.End()
	if s.TraceID() != "" || s.SpanID() != "" {
		t.Fatal("nil span has non-empty IDs")
	}
	if s.Recording() {
		t.Fatal("nil span claims to record")
	}
	if tr.SpanAt(SpanContext{}, "x", "k", time.Now(), time.Now()).IsValid() {
		t.Fatal("nil tracer SpanAt returned a valid context")
	}
	var st *Store
	st.Defer(TraceID{1}, 1, func() func() []SpanData { t.Error("nil store admitted a deferred batch"); return nil })
	if st.Spans(TraceID{1}) != nil || st.Len() != 0 || st.Dropped() != 0 || st.TraceDropped(TraceID{1}) != 0 {
		t.Fatal("nil store not inert")
	}
}

func TestSpanParenting(t *testing.T) {
	tr := newTestTracer()
	ctx, root := tr.StartSpan(context.Background(), "root", "server")
	ctx2, child := tr.StartSpan(ctx, "child", "campaign")
	_, grand := tr.StartSpan(ctx2, "grand", "job")

	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child switched traces")
	}
	if grand.Context().TraceID != root.Context().TraceID {
		t.Fatal("grandchild switched traces")
	}
	grand.End()
	child.End()
	root.End()

	spans := tr.Store().Spans(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["child"].Parent != root.Context().SpanID {
		t.Fatal("child not parented to root")
	}
	if byName["grand"].Parent != child.Context().SpanID {
		t.Fatal("grandchild not parented to child")
	}
	if byName["root"].Parent.IsValid() {
		t.Fatal("root has a parent")
	}
	if got := Depth(spans); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
}

func TestRemoteParent(t *testing.T) {
	tr := newTestTracer()
	remote, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithRemote(context.Background(), remote)
	_, s := tr.StartSpan(ctx, "server", "server")
	if s.Context().TraceID != remote.TraceID {
		t.Fatal("remote trace ID not adopted")
	}
	s.End()
	spans := tr.Store().Spans(remote.TraceID)
	if len(spans) != 1 || spans[0].Parent != remote.SpanID {
		t.Fatalf("span not parented to remote context: %+v", spans)
	}
}

// TestTraceFlagsPropagate: a root span is sampled, and a span under a
// remote or in-process parent renders its parent's flags, so an unsampled
// caller's traceparent is neither echoed nor forwarded as sampled.
func TestTraceFlagsPropagate(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "server")
	if got := root.Context().Traceparent(); !strings.HasSuffix(got, "-01") {
		t.Errorf("root span renders %q, want sampled (-01)", got)
	}
	for _, flags := range []string{"00", "01"} {
		remote, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-" + flags)
		if err != nil {
			t.Fatal(err)
		}
		ctx, server := tr.StartSpan(ContextWithRemote(context.Background(), remote), "server", "server")
		_, child := tr.StartSpan(ctx, "forward", "client")
		bridged := tr.SpanAt(child.Context(), "stage", "stage", time.Now(), time.Now())
		for name, sc := range map[string]SpanContext{"server": server.Context(), "child": child.Context(), "bridged": bridged} {
			if got := sc.Traceparent(); got[53:] != flags {
				t.Errorf("flags %s: %s span renders %q", flags, name, got)
			}
		}
	}
}

func TestEndIdempotentAndOrdering(t *testing.T) {
	tr := newTestTracer()
	_, s := tr.StartSpan(context.Background(), "x", "job")
	s.SetError(context.DeadlineExceeded)
	s.End()
	s.End() // second End must not double-store
	spans := tr.Store().Spans(s.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("stored %d spans, want 1", len(spans))
	}
	if !spans[0].IsError || spans[0].Status != context.DeadlineExceeded.Error() {
		t.Fatalf("error status lost: %+v", spans[0])
	}
	if spans[0].End.Before(spans[0].Start) {
		t.Fatal("end before start")
	}
}

func TestSpanAtBridgesUnderParent(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "exec", "execute")
	t0 := root.Context()
	base := time.Unix(100, 0)
	comp := tr.SpanAt(t0, "sim[0]", "component", base, base.Add(2*time.Second))
	tr.SpanAt(comp, "S", "stage:S", base, base.Add(time.Second))
	root.End()
	spans := tr.Store().Spans(t0.TraceID)
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}
	if got := Depth(spans); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
}

func TestStoreBounds(t *testing.T) {
	st := NewStore(2, 3)
	tr := NewTracer(st)
	var traces []TraceID
	for i := 0; i < 3; i++ {
		_, s := tr.StartSpan(context.Background(), "root", "server")
		traces = append(traces, s.Context().TraceID)
		for k := 0; k < 5; k++ {
			tr.SpanAt(s.Context(), "c", "job", time.Unix(0, 0), time.Unix(1, 0))
		}
		s.End()
	}
	if st.Len() != 2 {
		t.Fatalf("store retained %d traces, want 2 (FIFO bound)", st.Len())
	}
	if st.Spans(traces[0]) != nil {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range traces[1:] {
		if n := len(st.Spans(id)); n != 3 {
			t.Fatalf("trace retained %d spans, want 3 (per-trace cap)", n)
		}
	}
	if st.Dropped() == 0 {
		t.Fatal("dropped counter not advanced")
	}
}

func TestStoreConcurrent(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "server")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := tr.StartSpan(ContextWithSpan(context.Background(), root), "w", "job")
				s.SetAttr(Int("i", i))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(tr.Store().Spans(root.Context().TraceID)); n != 8*200+1 {
		t.Fatalf("stored %d spans, want %d", n, 8*200+1)
	}
}

// emit returns a Defer admit function whose builder produces n pre-timed
// spans under parent through a scratch tracer, counting how often it ran.
func emit(parent SpanContext, n int, runs *atomic.Int32) func() func() []SpanData {
	build := func() []SpanData {
		runs.Add(1)
		scratch := newTestTracer()
		for i := 0; i < n; i++ {
			scratch.SpanAt(parent, "d", "stage:S", time.Unix(0, 0), time.Unix(1, 0), Int("i", i))
		}
		return scratch.Store().Spans(parent.TraceID)
	}
	return func() func() []SpanData { return build }
}

// TestDeferredBatchBuiltOnceForConcurrentReaders: every reader racing for
// the first read of a trace sees the whole batch, and it is built once.
func TestDeferredBatchBuiltOnceForConcurrentReaders(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "execute")
	const n, readers = 500, 16
	var runs atomic.Int32
	tr.Store().Defer(root.Context().TraceID, n, emit(root.Context(), n, &runs))
	root.End()
	if runs.Load() != 0 {
		t.Fatal("batch built before anybody read the trace")
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spans := tr.Store().Spans(root.Context().TraceID)
			if len(spans) != n+1 {
				t.Errorf("reader saw %d spans, want %d", len(spans), n+1)
			}
			ids := make(map[SpanID]bool, len(spans))
			for _, d := range spans {
				if d.TraceID != root.Context().TraceID || (d.Kind != "execute" && d.Parent != root.Context().SpanID) {
					t.Errorf("span %+v is not under the root", d)
				}
				ids[d.SpanID] = true
			}
			if len(ids) != len(spans) {
				t.Errorf("%d distinct span IDs among %d spans", len(ids), len(spans))
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("batch built %d times, want 1", got)
	}
	if n := len(tr.Store().Spans(root.Context().TraceID)); n != 501 {
		t.Fatalf("second read saw %d spans, want 501", n)
	}
}

// TestDeferredBatchCapIsBatchGranular: a batch reserves its spans when it
// is deferred, one that does not fit is refused whole and counted, and
// live spans keep to what the admitted batches left.
func TestDeferredBatchCapIsBatchGranular(t *testing.T) {
	st := NewStore(0, 10)
	tr := NewTracer(st)
	_, root := tr.StartSpan(context.Background(), "root", "execute")
	parent, id := root.Context(), root.Context().TraceID
	live := func() { tr.SpanAt(parent, "live", "job", time.Unix(0, 0), time.Unix(1, 0)) }
	var fits atomic.Int32

	live()
	live()
	live()
	st.Defer(id, 6, emit(parent, 6, &fits))    // 3 + 6 <= 10
	st.Defer(id, 2, func() func() []SpanData { // 9 + 2 > 10: refused whole
		t.Error("refused batch was asked for its builder")
		return nil
	})
	if st.Dropped() != 2 || st.TraceDropped(id) != 2 {
		t.Fatalf("dropped = %d (trace %d), want 2", st.Dropped(), st.TraceDropped(id))
	}
	live() // the tenth slot
	live() // over the cap
	if st.Dropped() != 3 {
		t.Fatalf("dropped = %d after a live span over the cap, want 3", st.Dropped())
	}

	spans := st.Spans(id)
	kinds := map[string]int{}
	for _, d := range spans {
		kinds[d.Kind]++
	}
	if len(spans) != 10 || kinds["job"] != 4 || kinds["stage:S"] != 6 {
		t.Fatalf("retained %d spans %v, want 4 live + the 6-span batch", len(spans), kinds)
	}
	if fits.Load() != 1 {
		t.Fatalf("admitted batch built %d times, want 1", fits.Load())
	}
	if other := NewStore(0, 10); other.TraceDropped(id) != 0 {
		t.Fatal("unknown trace reports drops")
	}
}

// TestDeferredBatchEvictedWithItsTrace: a deferred batch lives in its
// trace's entry, so FIFO eviction releases it unbuilt; deferring into a
// trace the store has not seen takes a place in the eviction order like
// any first span does.
func TestDeferredBatchEvictedWithItsTrace(t *testing.T) {
	st := NewStore(2, 100)
	tr := NewTracer(st)
	var runs atomic.Int32
	var ids []TraceID
	for i := 0; i < 3; i++ {
		parent := SpanContext{TraceID: tr.newTraceID(), SpanID: tr.newSpanID()}
		ids = append(ids, parent.TraceID)
		st.Defer(parent.TraceID, 5, emit(parent, 5, &runs)) // the trace's first contact with the store
		if want := min(i+1, 2); st.Len() != want {
			t.Fatalf("after %d traces Len() = %d, want %d", i+1, st.Len(), want)
		}
	}
	if _, ok := st.traces[ids[0]]; ok {
		t.Fatal("oldest trace (and its pending batch) still held")
	}
	if st.Spans(ids[0]) != nil || runs.Load() != 0 {
		t.Fatalf("evicted trace still readable, or its batch was built (%d builds)", runs.Load())
	}
	for _, id := range ids[1:] {
		if n := len(st.Spans(id)); n != 5 {
			t.Fatalf("retained trace has %d spans, want 5", n)
		}
	}
	if st.Len() != 2 || st.Dropped() != 0 {
		t.Fatalf("Len() = %d, Dropped() = %d; want 2 and 0", st.Len(), st.Dropped())
	}
	if e := st.traces[ids[1]]; len(e.pending) != 0 {
		t.Fatalf("built batch still pending: %d batches", len(e.pending))
	}
}

func TestIDUniqueness(t *testing.T) {
	tr := newTestTracer()
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		id := tr.newSpanID()
		if !id.IsValid() {
			t.Fatal("generated zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID after %d draws", i)
		}
		seen[id] = true
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	tr := newTestTracer()
	ctx, root := tr.StartSpan(context.Background(), "req", "server", String("http.route", "/v1/campaigns"))
	_, child := tr.StartSpan(ctx, "job", "job", Int("priority", 5), Float("objective", 1.25), Bool("cacheHit", false))
	child.SetError(context.Canceled)
	child.End()
	root.End()

	spans := tr.Store().Spans(root.Context().TraceID)
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, "ensembled", spans, 0); err != nil {
		t.Fatalf("WriteOTLP: %v", err)
	}
	if !strings.Contains(buf.String(), `"resourceSpans"`) || !strings.Contains(buf.String(), `"ensembled"`) {
		t.Fatalf("OTLP document missing envelope:\n%s", buf.String())
	}

	got, err := ReadOTLP(&buf)
	if err != nil {
		t.Fatalf("ReadOTLP: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip returned %d spans, want 2", len(got))
	}
	byName := map[string]SpanData{}
	for _, d := range got {
		byName[d.Name] = d
	}
	j := byName["job"]
	if j.Kind != "job" || j.Parent != root.Context().SpanID || !j.IsError {
		t.Fatalf("job span mangled: %+v", j)
	}
	if j.Status != context.Canceled.Error() {
		t.Fatalf("status message lost: %q", j.Status)
	}
	var prio, obj, hit bool
	for _, a := range j.Attrs {
		switch a.Key {
		case "priority":
			prio = a.Value == int64(5)
		case "objective":
			obj = a.Value == 1.25
		case "cacheHit":
			hit = a.Value == false
		}
	}
	if !prio || !obj || !hit {
		t.Fatalf("attribute values mangled: %+v", j.Attrs)
	}
	r := byName["req"]
	if r.Kind != "server" || r.Parent.IsValid() {
		t.Fatalf("root span mangled: %+v", r)
	}
	// Times survive at nanosecond resolution.
	if !r.Start.Equal(byName["req"].Start) || r.End.Sub(r.Start) < 0 {
		t.Fatal("timestamps mangled")
	}
}

func TestWriteOTLPDeterministic(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "server")
	base := time.Unix(50, 0)
	for i := 0; i < 5; i++ {
		tr.SpanAt(root.Context(), "c", "job", base.Add(time.Duration(i)*time.Second), base.Add(time.Duration(i+1)*time.Second))
	}
	root.End()
	spans := tr.Store().Spans(root.Context().TraceID)
	var a, b bytes.Buffer
	if err := WriteOTLP(&a, "svc", spans, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteOTLP(&b, "svc", spans, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteOTLP not deterministic for fixed input")
	}
}
