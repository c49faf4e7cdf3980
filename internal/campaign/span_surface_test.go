package campaign

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/telemetry/tracing"
)

// Which simulated spans a traced job carries depends on what served it:
// a job the timeline kernel served derives component and stage spans from
// its stored trace; a job that needed the engine carries the engine's
// event stream — DTL operations, fabric flows, and faults too.

// jobSpanKinds posts body as a one-job campaign on a traced server and
// returns the job's ID, its trace's spans (waiting for the campaign span,
// the last to close), and a count per kind.
func jobSpanKinds(t *testing.T, body string) (ts *httptest.Server, svc *Service, jobID string, spans []tracing.SpanData, kinds map[string]int) {
	t.Helper()
	ts, svc = newTracedServer(t, Config{})
	final := pollCampaign(t, ts, postCampaign(t, ts, body).ID)
	if final.Status != "done" || final.Result.Jobs != 1 {
		t.Fatalf("campaign: %+v", final)
	}
	jobID = final.Result.Candidates[0].JobIDs[0]
	spans = getSpans(t, ts, jobID, "campaign")
	kinds = map[string]int{}
	for _, d := range spans {
		kinds[d.Kind]++
	}
	return ts, svc, jobID, spans, kinds
}

// servedByKernel reads the execute span's obs.AttrFastPath attribute.
func servedByKernel(t *testing.T, spans []tracing.SpanData) (exec tracing.SpanData, kernel bool) {
	t.Helper()
	for _, d := range spans {
		if d.Kind != "execute" {
			continue
		}
		for _, a := range d.Attrs {
			if a.Key == obs.AttrFastPath {
				return d, a.Value == true
			}
		}
	}
	t.Fatal("no execute span with a kernel-served attribute")
	return exec, false
}

func TestKernelServedJobSpansDeriveFromItsTrace(t *testing.T) {
	ts, svc, jobID, spans, kinds := jobSpanKinds(t, `{"configs":["C1.4"],"steps":4}`)

	j, _ := svc.Job(jobID)
	tr, err := j.Trace()
	if err != nil {
		t.Fatal(err)
	}
	components, stages := 0, 0
	for _, c := range tr.Components() {
		components++
		for _, step := range c.Steps {
			stages += len(step.Stages)
		}
	}
	gotStages := 0
	for _, d := range spans {
		switch kind, _, _ := strings.Cut(d.Kind, ":"); kind {
		case "stage":
			gotStages++
		case "dtl", "net", "fault":
			t.Errorf("kernel-served job carries a %s span", d.Kind)
		}
	}
	if kinds["component"] != components || gotStages != stages || stages == 0 {
		t.Fatalf("%d component and %d stage spans, want %d and %d (one per trace record)",
			kinds["component"], gotStages, components, stages)
	}
	exec, kernel := servedByKernel(t, spans)
	if !kernel {
		t.Error("execute span says the engine served a fault-free job")
	}

	// Built once, on the first read: a second read returns the same spans,
	// not a second bridge's.
	again := map[tracing.SpanID]bool{}
	for _, d := range getSpans(t, ts, jobID, "campaign") {
		again[d.SpanID] = true
	}
	for _, d := range spans {
		if !again[d.SpanID] {
			t.Fatalf("span %s %q changed identity between reads", d.Kind, d.Name)
		}
	}

	// The critical path through the execute span partitions its window,
	// and runs through the simulated stages.
	cp, err := tracing.ComputeCriticalPath(spans, exec.SpanID)
	if err != nil {
		t.Fatal(err)
	}
	sum, onStages := 0.0, 0
	for _, seg := range cp.Segments {
		sum += seg.Sec
		if strings.HasPrefix(seg.Kind, "stage:") {
			onStages++
		}
	}
	window := exec.End.Sub(exec.Start).Seconds()
	if math.Abs(sum-window) > 1e-6*window || math.Abs(cp.TotalSec-window) > 1e-6*window || onStages == 0 {
		t.Fatalf("critical path: %d stage segments summing to %v (total %v) of a %v s execute window",
			onStages, sum, cp.TotalSec, window)
	}
}

func TestEngineServedJobSpansCarryEngineKinds(t *testing.T) {
	_, _, _, spans, kinds := jobSpanKinds(t, `{"configs":["C1.4"],"steps":4,
		"faultPlans":[{"name":"degraded","network":[{"start":2,"end":30,"factor":0.25}]}]}`)
	for _, want := range []string{"component", "stage:R", "dtl:put", "dtl:get", "net:flow", "fault"} {
		if kinds[want] == 0 {
			t.Errorf("no %q span on a job that needed the engine (kinds %v)", want, kinds)
		}
	}
	if _, kernel := servedByKernel(t, spans); kernel {
		t.Error("execute span says the kernel served a faulted job")
	}
}
