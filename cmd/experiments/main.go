// Command experiments regenerates the paper's tables and figures on the
// simulated platform and prints them as aligned text tables (optionally
// CSV). This is the reproduction harness behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-exp all|NAME] [-trials N] [-steps N] [-jitter F] [-seed N] [-quick]
//	            [-csv DIR] [-obs FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// NAME is one entry of experiments.Studies (`experiments -h` lists them):
// the paper's tables and figures, its headline, then the extension
// studies documented in EXPERIMENTS.md. Every simulation runs
// in-process, one after another, so the printed tables are a
// deterministic function of the flags. -obs runs an instrumented
// reference execution (C1.5 on the paper's machine) and writes its
// Chrome/Perfetto trace alongside the tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/experiments"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "study to run: all | "+strings.Join(names(), " | "))
		trials     = flag.Int("trials", 5, "trials to average (the paper uses 5)")
		steps      = flag.Int("steps", 0, "in situ steps (0 = the paper's 37)")
		jitter     = flag.Float64("jitter", 0.02, "stage-time noise amplitude (negative disables)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		quick      = flag.Bool("quick", false, "fast mode: 1 trial, 8 steps, no jitter")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		obsOut     = flag.String("obs", "", "write a Chrome trace of an instrumented reference run (C1.5) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	cfg := experiments.Config{
		Trials:   *trials,
		Steps:    *steps,
		Jitter:   *jitter,
		BaseSeed: *seed,
	}.Defaults()
	if *quick {
		cfg = experiments.Quick()
	}

	if err := realMain(cfg, strings.ToLower(*exp), *csvDir, *obsOut, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func realMain(cfg experiments.Config, exp, csvDir, obsOut, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: heap profile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: heap profile: %v\n", err)
			}
		}()
	}
	if err := run(os.Stdout, cfg, exp, csvDir); err != nil {
		return err
	}
	if obsOut != "" {
		return writeReferenceObs(cfg, obsOut)
	}
	return nil
}

// writeReferenceObs runs C1.5 (the paper's winning configuration) with the
// instrumentation bus attached and exports the Chrome trace. The harness's
// own experiment runs stay uninstrumented: each spawns its own simulation
// environment, and a shared recorder would interleave their clocks.
func writeReferenceObs(cfg experiments.Config, path string) error {
	p := placement.C15()
	spec := cluster.Cori(3)
	es := runtime.SpecForPlacement(p, cfg.Steps)
	rec := obs.NewRecorder(nil)
	if _, err := runtime.RunSimulated(spec, p, es, runtime.SimOptions{
		Jitter: cfg.Jitter, Seed: cfg.BaseSeed, Recorder: rec,
	}); err != nil {
		return fmt.Errorf("reference obs run: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
		return err
	}
	fmt.Printf("reference C1.5 chrome trace written to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// run prints the selected studies' blocks to w and, with csvDir set,
// writes each study whose first block is a table to csvDir/NAME.csv.
func run(w io.Writer, cfg experiments.Config, exp, csvDir string) error {
	studies := experiments.Studies
	if exp != "all" {
		i := slices.IndexFunc(studies, func(s experiments.Study) bool { return s.Name == exp })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q (want all, %s)", exp, strings.Join(names(), ", "))
		}
		studies = studies[i : i+1]
	}
	for _, s := range studies {
		_, blocks, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		for _, b := range blocks {
			fmt.Fprintln(w, b)
		}
		if t, ok := blocks[0].(*report.Table); ok && csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, s.Name+".csv"), t); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(path string, t *report.Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// names lists the studies in print order.
func names() []string {
	out := make([]string, len(experiments.Studies))
	for i, s := range experiments.Studies {
		out[i] = s.Name
	}
	return out
}
