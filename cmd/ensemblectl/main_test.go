package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/trace"
)

func TestRunBuiltinConfig(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	if err := run("C_c", "", 6, "dimes", 0, 1, 0, traceFile, obsOutput{}, nil, runtime.Resilience{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config != "C_c" || len(tr.Members) != 1 {
		t.Errorf("unexpected trace: %s, %d members", tr.Config, len(tr.Members))
	}
}

func TestRunPlacementFile(t *testing.T) {
	plFile := filepath.Join(t.TempDir(), "p.json")
	f, err := os.Create(plFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := placement.C13().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run("ignored", plFile, 4, "dimes", 0, 1, 0, "", obsOutput{}, nil, runtime.Resilience{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("C9.9", "", 4, "dimes", 0, 1, 0, "", obsOutput{}, nil, runtime.Resilience{}); err == nil {
		t.Error("unknown config should fail")
	}
	if err := run("C_c", "/nonexistent/file.json", 4, "dimes", 0, 1, 0, "", obsOutput{}, nil, runtime.Resilience{}); err == nil {
		t.Error("missing placement file should fail")
	}
}

func TestCompareMode(t *testing.T) {
	if err := compare("C1.4, C1.5", 6, "dimes", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := compare("C9.9", 6, "dimes", 0, 1); err == nil {
		t.Error("unknown config in compare should fail")
	}
}

func TestRunObsExport(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "run.perfetto.json")
	if err := run("C1.5", "", 4, "dimes", 0, 1, 0, "",
		obsOutput{path: chrome, format: "chrome"}, nil, runtime.Resilience{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported chrome trace invalid: %v", err)
	}
	summary := filepath.Join(dir, "run.summary.txt")
	if err := run("C1.5", "", 4, "dimes", 0, 1, 0, "",
		obsOutput{path: summary, format: "summary"}, nil, runtime.Resilience{}); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "per-node core occupancy") {
		t.Errorf("summary missing node occupancy section:\n%s", text)
	}
	// Unknown format is rejected up front.
	if err := (obsOutput{path: "x", format: "bogus"}).validate(); err == nil {
		t.Error("bogus trace format should fail validation")
	}
}
