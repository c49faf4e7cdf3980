package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
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

// desShapes returns the shapes of the DES-level spans (component, stage,
// DTL, flow, fault), in store order.
func desShapes(spans []tracing.SpanData) []desShape {
	kindOf := make(map[tracing.SpanID]string, len(spans))
	for _, d := range spans {
		kindOf[d.SpanID] = d.Kind
	}
	var out []desShape
	for _, d := range spans {
		switch kind, _, _ := strings.Cut(d.Kind, ":"); kind {
		case "component", "stage", "dtl", "net", "fault":
			out = append(out, desShape{d.Name, d.Kind, kindOf[d.Parent], d.Start.UnixNano(), d.End.UnixNano(), d.Attrs})
		}
	}
	return out
}

// affineMap returns the virtual-to-wall map the trace's finished execute
// span carries; ok is false while there is none.
func affineMap(spans []tracing.SpanData) (anchor time.Time, scale float64, ok bool) {
	for _, d := range spans {
		if d.Kind != "execute" {
			continue
		}
		for _, a := range d.Attrs {
			switch a.Key {
			case obs.AttrAnchorUnixNano:
				anchor = time.Unix(0, a.Value.(int64))
			case obs.AttrScale:
				scale = a.Value.(float64)
			}
		}
	}
	return anchor, scale, !anchor.IsZero() && scale > 0
}

// checkEqualsEagerBridge compares the DES spans of a deferred read with an
// eager obs.BridgeSpans of the spec's event stream — a pure function of
// the spec, recorded afresh here — under the map on the execute span, and
// returns how many there are.
func checkEqualsEagerBridge(t *testing.T, spec JobSpec, deferred []tracing.SpanData) int {
	t.Helper()
	anchor, scale, ok := affineMap(deferred)
	if !ok {
		t.Fatalf("execute span carries no affine map: anchor %v scale %v", anchor, scale)
	}
	rec := obs.NewRecorder(nil)
	if _, _, err := runSpec(spec, rec, nil); err != nil {
		t.Fatal(err)
	}
	eagerTracer := tracing.NewTracer(tracing.NewStore(0, 0))
	_, eagerExec := eagerTracer.StartSpan(context.Background(), "execute", "execute")
	n := obs.BridgeSpans(eagerTracer, eagerExec.Context(), rec.Events(), anchor, scale)
	eagerExec.End()

	got, want := desShapes(deferred), desShapes(eagerTracer.Store().Spans(eagerExec.Context().TraceID))
	if len(got) != n || len(want) != n || n < 20 {
		t.Fatalf("deferred read has %d DES spans, eager bridge %d (returned %d)", len(got), len(want), n)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("DES span %d differs:\n deferred %+v\n eager    %+v", i, got[i], want[i])
		}
	}
	return n
}

// engineSpec is a C1.5 job that needs the engine (two staging slots), so
// an observed run records the engine's event stream. The deep one (64
// steps) has a longer event log than the shallow one (4), so a recycled
// log is first longer, then shorter, than what it held.
func engineSpec(t *testing.T, steps int, seed int64) JobSpec {
	t.Helper()
	p := placement.C15()
	spec, err := NewJob(cluster.Cori(2), p, runtime.SpecForPlacement(p, steps),
		runtime.SimOptions{Seed: seed, Jitter: 0.1, StagingSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeferredSpansEqualEagerBridge runs a deep then a shallow traced job
// through the execution path back to back on one goroutine, so the second
// records into the log the first one used, and only then reads the traces
// (which builds their spans): each equals an eager obs.BridgeSpans of its
// own event stream under the same affine map.
func TestDeferredSpansEqualEagerBridge(t *testing.T) {
	specs := []JobSpec{engineSpec(t, 64, 42), engineSpec(t, 4, 42)}
	tracer := tracing.NewTracer(tracing.NewStore(0, 0))
	execs := make([]*tracing.Span, len(specs))
	for i, spec := range specs {
		ctx, exec := tracer.StartSpan(context.Background(), "execute", "execute")
		if _, _, err := executeSpec(ctx, tracer, pinnedSimHash, spec, nil); err != nil {
			t.Fatal(err)
		}
		exec.End()
		execs[i] = exec
	}
	deferred := tracer.Store().Spans(execs[0].Context().TraceID)
	deep := checkEqualsEagerBridge(t, specs[0], deferred)
	shallow := checkEqualsEagerBridge(t, specs[1], tracer.Store().Spans(execs[1].Context().TraceID))
	if deep <= shallow {
		t.Fatalf("deep job has %d DES spans, shallow %d", deep, shallow)
	}

	// The execute span's critical path still partitions its wall time, and
	// runs through the simulated stages.
	cp, err := tracing.ComputeCriticalPath(deferred, execs[0].Context().SpanID)
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

// TestDeferredSpansReadWhileWorkersRecord: four workers run alternating
// deep and shallow traced jobs, recycling one another's event logs, while
// every finished job's trace is read at once. Each still equals its eager
// bridge. Run under -race.
func TestDeferredSpansReadWhileWorkersRecord(t *testing.T) {
	tracer := tracing.NewTracer(tracing.NewStore(0, 0))
	svc, err := NewService(Config{Workers: 4, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		spec := engineSpec(t, 4, int64(100+i))
		if i%2 == 0 {
			spec = engineSpec(t, 64, int64(100+i))
		}
		ctx, root := tracer.StartSpan(context.Background(), "test", "server")
		j, err := svc.Submit(ctx, spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer root.End()
			if _, err := j.Wait(ctx); err != nil {
				t.Error(err)
				return
			}
			// The execute span, which carries the map, ends as Wait returns.
			var spans []tracing.SpanData
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				spans = tracer.Store().Spans(root.Context().TraceID)
				if _, _, ok := affineMap(spans); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("job %s: execute span never completed", j.ID)
					return
				}
			}
			checkEqualsEagerBridge(t, spec, spans)
		}()
	}
	wg.Wait()
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
	ts := serveTest(t, NewServer(svc).Handler())

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
