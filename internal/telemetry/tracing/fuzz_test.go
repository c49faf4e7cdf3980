package tracing

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"
)

// FuzzParseTraceparent feeds arbitrary header values to ParseTraceparent,
// which reads the traceparent of every inbound request: it never panics,
// and a header it accepts renders back (SpanContext.Traceparent) to one
// that parses to the same context. The rendering is the accepted header
// byte for byte, flags included, as version 00: a later version's header
// loses only its version and its trailing fields.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",
		"02-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-future",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		again, err := ParseTraceparent(sc.Traceparent())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", h, sc.Traceparent(), err)
		}
		if again != sc {
			t.Fatalf("%q parsed to %+v, its rendering to %+v", h, sc, again)
		}
		if want := "00" + h[2:55]; sc.Traceparent() != want {
			t.Fatalf("header %q parsed, but renders as %q, want %q", h, sc.Traceparent(), want)
		}
	})
}

// FuzzReadOTLP feeds arbitrary bytes to ReadOTLP, which reads span files
// traceview did not write. It never panics. On a document it accepts,
// the critical path terminates, as traceview -spans needs it to on
// cyclic, self-parented or duplicated spans; and the
// spans round-trip through WriteOTLP unchanged, in sortSpans order.
func FuzzReadOTLP(f *testing.F) {
	// A real job's trace: request, campaign, job, queue, execute,
	// component, stage, DTL and flow spans of a two-step, two-slot
	// burst-buffer run.
	job, err := os.ReadFile("testdata/job-spans.otlp.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(job)
	// A self-parented span, a two-span cycle, a duplicated span ID, an
	// empty attribute value and an error status.
	base := time.Unix(1_700_000_000, 0).UTC()
	var tid TraceID
	tid[0] = 1
	sid := func(b byte) (s SpanID) { s[7] = b; return }
	var small bytes.Buffer
	if err := WriteOTLP(&small, "fuzz", []SpanData{
		{TraceID: tid, SpanID: sid(1), Name: "root", Kind: "job", Start: base, End: base.Add(4 * time.Second)},
		{TraceID: tid, SpanID: sid(2), Parent: sid(2), Name: "self", Start: base, End: base.Add(time.Second)},
		{TraceID: tid, SpanID: sid(3), Parent: sid(4), Name: "a", Start: base.Add(time.Second), End: base.Add(3 * time.Second)},
		{TraceID: tid, SpanID: sid(4), Parent: sid(3), Name: "b", Start: base.Add(2 * time.Second), End: base.Add(3 * time.Second)},
		{TraceID: tid, SpanID: sid(3), Parent: sid(1), Name: "dup", Start: base.Add(time.Second), End: base.Add(2 * time.Second),
			Attrs: []Attr{{Key: "empty"}, Int64("n", -7), Float("x", 0.25), Bool("ok", true)}, IsError: true, Status: "boom"},
	}, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add([]byte(`{"resourceSpans":[{"scopeSpans":[{"spans":[{"traceId":"00","spanId":"zz"}]}]}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		spans, err := ReadOTLP(bytes.NewReader(doc))
		if err != nil {
			return
		}
		// Rooted at the trace root and at the first spans of the
		// document: a walk from every span would be quadratic.
		roots := spans[:min(len(spans), 8)]
		if root, ok := FindRoot(spans); ok {
			roots = append(roots[:len(roots):len(roots)], root)
		}
		for _, d := range roots {
			if _, err := ComputeCriticalPath(spans, d.SpanID); err != nil {
				t.Fatalf("span %s is in the trace, but: %v", d.SpanID, err)
			}
		}
		Depth(spans)
		var buf bytes.Buffer
		if err := WriteOTLP(&buf, "fuzz", spans, 0); err != nil {
			t.Fatal(err)
		}
		again, err := ReadOTLP(&buf)
		if err != nil {
			t.Fatalf("WriteOTLP's own document does not read back: %v\n%s", err, buf.Bytes())
		}
		want := append([]SpanData(nil), spans...)
		sortSpans(want)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", again, want)
		}
	})
}
