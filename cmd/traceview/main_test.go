package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
)

func writeSampleTrace(t *testing.T) string {
	t.Helper()
	cfg := placement.Cc()
	tr, err := runtime.RunSimulated(cluster.Cori(1), cfg,
		runtime.SpecForPlacement(cfg, 4), runtime.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnValidTrace(t *testing.T) {
	if err := run(writeSampleTrace(t), 3, 80, filepath.Join(t.TempDir(), "steps.csv"), "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent.json", 3, 80, "", "", "", false); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, 3, 80, "", "", "", false); err == nil {
		t.Error("malformed trace should fail")
	}
}

func TestRunObsExportAndUtilization(t *testing.T) {
	path := writeSampleTrace(t)
	out := filepath.Join(t.TempDir(), "run.perfetto.json")
	if err := run(path, 3, 80, "", out, "", true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("traceview chrome export invalid: %v", err)
	}
}

// writeSampleSpans writes an OTLP span file shaped like the service's
// /v1/jobs/{id}/spans payload: a job root, an execute child carrying
// the des.* inverse-map attributes, and a component grandchild.
func writeSampleSpans(t *testing.T) string {
	t.Helper()
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ids := func(b byte) (tid tracing.TraceID, sid tracing.SpanID) {
		for i := range tid {
			tid[i] = 0xaa
		}
		sid[7] = b
		return
	}
	tid, jobID := ids(1)
	_, execID := ids(2)
	_, compID := ids(3)
	spans := []tracing.SpanData{
		{TraceID: tid, SpanID: jobID, Name: "job j-1", Kind: "job",
			Start: base, End: base.Add(2 * time.Second)},
		{TraceID: tid, SpanID: execID, Parent: jobID, Name: "execute", Kind: "execute",
			Start: base.Add(100 * time.Millisecond), End: base.Add(1900 * time.Millisecond),
			Attrs: []tracing.Attr{
				tracing.Int64(obs.AttrAnchorUnixNano, base.Add(100*time.Millisecond).UnixNano()),
				tracing.Float(obs.AttrScale, 0.5),
			}},
		{TraceID: tid, SpanID: compID, Parent: execID, Name: "S1", Kind: "component",
			Start: base.Add(200 * time.Millisecond), End: base.Add(1800 * time.Millisecond)},
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	var buf bytes.Buffer
	if err := tracing.WriteOTLP(&buf, "test", spans, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSpansCriticalPathAndMergedExport(t *testing.T) {
	path := writeSampleTrace(t)
	spansPath := writeSampleSpans(t)
	out := filepath.Join(t.TempDir(), "merged.perfetto.json")
	if err := run(path, 3, 80, "", out, spansPath, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("merged chrome export invalid: %v", err)
	}
	if !bytes.Contains(data, []byte(`"service"`)) {
		t.Error("merged export lacks the service process carrying the job spans")
	}
}

func TestRunSpansErrors(t *testing.T) {
	path := writeSampleTrace(t)
	if err := run(path, 3, 80, "", "", "/nonexistent-spans.json", false); err == nil {
		t.Error("missing span file should fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"resourceSpans":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 3, 80, "", "", empty, false); err == nil {
		t.Error("span file without spans should fail")
	}
}
