package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ensemblekit/internal/experiments"
	"ensemblekit/internal/obs"
)

func TestRunSingleExperiments(t *testing.T) {
	cfg := experiments.Quick()
	for _, exp := range []string{"table2", "table4", "fig5", "fig7", "headline"} {
		if err := run(io.Discard, cfg, exp, ""); err != nil {
			t.Errorf("exp %q: %v", exp, err)
		}
	}
}

// TestRunAllMatchesGolden holds the CLI's print loop to the registry's
// golden (TestGolden in internal/experiments pins the same bytes) and
// checks that every study whose first block is a table leaves a CSV.
func TestRunAllMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, experiments.Quick(), "all", dir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "all-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("-exp all -quick output differs from internal/experiments/testdata/all-quick.golden")
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 18 { // 21 studies; table1, fig6 and headline render text
		t.Errorf("%d CSV files, want 18: %v", len(csvs), csvs)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, experiments.Quick(), "fig99", ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, experiments.Quick(), "fig5", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV written")
	}
}

func TestWriteReferenceObs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ref.perfetto.json")
	if err := writeReferenceObs(experiments.Quick(), out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("reference chrome trace invalid: %v", err)
	}
}
