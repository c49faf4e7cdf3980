package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// desShape is what must not change about a bridged span when the bridge
// runs late: everything but its (random) IDs, with the parent named by
// kind.
type desShape struct {
	Name, Kind, ParentKind string
	Start, End             int64
	Attrs                  []tracing.Attr
}

// desShapes returns the shapes of the spans below the execute span, in
// store order.
func desShapes(spans []tracing.SpanData) []desShape {
	kindOf := make(map[tracing.SpanID]string, len(spans))
	for _, d := range spans {
		kindOf[d.SpanID] = d.Kind
	}
	var out []desShape
	for _, d := range spans {
		if d.Kind == "execute" {
			continue
		}
		out = append(out, desShape{d.Name, d.Kind, kindOf[d.Parent], d.Start.UnixNano(), d.End.UnixNano(), d.Attrs})
	}
	return out
}

// TestDeferredSpansEqualEagerBridge runs one traced job through the
// execution path, reads its spans (which builds them), and compares them
// with an eager obs.BridgeSpans of the same event stream under the same
// affine map.
func TestDeferredSpansEqualEagerBridge(t *testing.T) {
	spec := pinnedSimSpec(t)
	tracer := tracing.NewTracer(tracing.NewStore(0, 0))
	ctx, exec := tracer.StartSpan(context.Background(), "execute", "execute")
	if _, _, err := executeSpec(ctx, tracer, pinnedSimHash, spec, execHints{}); err != nil {
		t.Fatal(err)
	}
	exec.End()
	deferred := tracer.Store().Spans(exec.Context().TraceID)

	// The map's parameters are on the execute span; the event stream is a
	// pure function of the spec.
	var anchor time.Time
	var scale float64
	for _, d := range deferred {
		if d.Kind != "execute" {
			continue
		}
		for _, a := range d.Attrs {
			switch a.Key {
			case "des.anchorUnixNano":
				anchor = time.Unix(0, a.Value.(int64))
			case "des.scale":
				scale = a.Value.(float64)
			}
		}
	}
	if anchor.IsZero() || scale <= 0 {
		t.Fatalf("execute span carries no affine map: anchor %v scale %v", anchor, scale)
	}
	rec := obs.NewRecorder(nil)
	if _, _, err := runSpec(spec, rec, execHints{}); err != nil {
		t.Fatal(err)
	}
	eagerTracer := tracing.NewTracer(tracing.NewStore(0, 0))
	_, eagerExec := eagerTracer.StartSpan(context.Background(), "execute", "execute")
	n := obs.BridgeSpans(eagerTracer, eagerExec.Context(), rec.Events(), anchor, scale)
	eagerExec.End()
	eager := eagerTracer.Store().Spans(eagerExec.Context().TraceID)

	got, want := desShapes(deferred), desShapes(eager)
	if len(got) != n || len(want) != n || n < 20 {
		t.Fatalf("deferred read has %d DES spans, eager bridge %d (returned %d)", len(got), len(want), n)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("DES span %d differs:\n deferred %+v\n eager    %+v", i, got[i], want[i])
		}
	}

	// The execute span's critical path still partitions its wall time, and
	// runs through the simulated stages.
	cp, err := tracing.ComputeCriticalPath(deferred, exec.Context().SpanID)
	if err != nil {
		t.Fatal(err)
	}
	sum, stages := 0.0, 0
	for _, seg := range cp.Segments {
		sum += seg.Sec
		if strings.HasPrefix(seg.Kind, "stage:") {
			stages++
		}
	}
	if cp.TotalSec <= 0 || math.Abs(sum-cp.TotalSec) > 1e-9*cp.TotalSec || stages == 0 {
		t.Fatalf("critical path: %d stage segments summing to %v of %v", stages, sum, cp.TotalSec)
	}
}

// TestTruncatedTraceSaysSo gives the span store room for a job's service
// spans but not for its DES batch: the batch is refused whole, and the
// count surfaces on /spans, on /critical-path, and in the registry.
func TestTruncatedTraceSaysSo(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, err := NewService(Config{Workers: 1, Metrics: reg, Tracer: tracing.NewTracer(tracing.NewStore(0, 16))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)

	final := pollCampaign(t, ts, postCampaign(t, ts, `{"configs":["C1.5"],"steps":4}`).ID)
	if final.Status != "done" {
		t.Fatalf("campaign: %+v", final)
	}
	base := ts.URL + "/v1/jobs/" + final.Result.Candidates[0].JobIDs[0]

	var spansDoc struct {
		DroppedSpans int `json:"droppedSpans"`
	}
	getJSON(t, base+"/spans", &spansDoc)
	var cp struct {
		DroppedSpans int `json:"droppedSpans"`
		Segments     []tracing.Segment
	}
	getJSON(t, base+"/critical-path", &cp)
	if spansDoc.DroppedSpans < 20 || cp.DroppedSpans != spansDoc.DroppedSpans {
		t.Fatalf("droppedSpans: /spans %d, /critical-path %d; want the whole DES batch on both", spansDoc.DroppedSpans, cp.DroppedSpans)
	}
	for _, seg := range cp.Segments {
		if strings.HasPrefix(seg.Kind, "stage:") || seg.Kind == "component" {
			t.Fatalf("refused batch left a %s segment on the critical path", seg.Kind)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("tracing_spans_dropped_total %d\n", spansDoc.DroppedSpans); !strings.Contains(buf.String(), want) {
		t.Fatalf("registry lacks %q", want)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
