// Command experiments regenerates the paper's tables and figures on the
// simulated platform and prints them as aligned text tables (optionally
// CSV). This is the reproduction harness behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-exp all|table1|table2|table4|fig3|fig4|fig5|fig6|fig7|fig8|fig9|headline
//	                  |tiers|validation|buffers|aggregators|scaling|heterogeneous|topology
//	                  |sockets|intransit|faults]
//	            [-trials N] [-steps N] [-jitter F] [-seed N] [-quick]
//	            [-csv DIR] [-obs FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// The first group regenerates the paper's evaluation; the second group
// runs the extension studies documented in EXPERIMENTS.md. Every
// simulation runs in-process, one after another, so the printed tables
// are a deterministic function of the flags. -obs runs an instrumented
// reference execution (C1.5 on the paper's machine) and writes its
// Chrome/Perfetto trace alongside the tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
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
		exp        = flag.String("exp", "all", "experiment to run (all, table1, table2, table4, fig3..fig9, headline)")
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
	if err := run(cfg, exp, csvDir); err != nil {
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

func run(cfg experiments.Config, exp, csvDir string) error {
	selected := func(name string) bool { return exp == "all" || exp == name }
	emit := func(name string, t *report.Table) error {
		fmt.Println(t.String())
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteCSV(f)
	}

	any := false
	if selected("table1") {
		any = true
		out, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if selected("table2") {
		any = true
		if err := emit("table2", experiments.Table2()); err != nil {
			return err
		}
	}
	if selected("table4") {
		any = true
		if err := emit("table4", experiments.Table4()); err != nil {
			return err
		}
	}
	if selected("fig3") {
		any = true
		rows, err := experiments.Fig3(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig3", experiments.Fig3Table(rows)); err != nil {
			return err
		}
	}
	if selected("fig4") {
		any = true
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig4", experiments.Fig4Table(rows)); err != nil {
			return err
		}
	}
	if selected("fig5") {
		any = true
		rows, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig5", experiments.Fig5Table(rows)); err != nil {
			return err
		}
	}
	if selected("fig6") {
		any = true
		out, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if selected("fig7") {
		any = true
		points, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig7", experiments.Fig7Table(points)); err != nil {
			return err
		}
	}
	if selected("fig8") {
		any = true
		rows, _, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig8", experiments.IndicatorTable(
			"Figure 8 — F(P_i) per indicator stage, one analysis per simulation", rows)); err != nil {
			return err
		}
		fmt.Println(experiments.IndicatorChart("Figure 8 (right panel) — F(P^{U,A,P})", rows).String())
	}
	if selected("fig9") {
		any = true
		rows, _, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig9", experiments.IndicatorTable(
			"Figure 9 — F(P_i) per indicator stage, two analyses per simulation", rows)); err != nil {
			return err
		}
		fmt.Println(experiments.IndicatorChart("Figure 9 (right panel) — F(P^{U,A,P})", rows).String())
	}
	if selected("headline") {
		any = true
		res, err := experiments.Headline(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.String())
		fmt.Println()
	}
	if selected("tiers") {
		any = true
		rows, err := experiments.TierStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("tiers", experiments.TierTable(rows)); err != nil {
			return err
		}
	}
	if selected("validation") {
		any = true
		rows, err := experiments.ModelValidation(cfg)
		if err != nil {
			return err
		}
		if err := emit("validation", experiments.ValidationTable(rows)); err != nil {
			return err
		}
	}
	if selected("buffers") {
		any = true
		rows, err := experiments.BufferStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("buffers", experiments.BufferTable(rows)); err != nil {
			return err
		}
	}
	if selected("aggregators") {
		any = true
		rows, err := experiments.AggregatorStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("aggregators", experiments.AggregatorTable(rows)); err != nil {
			return err
		}
	}
	if selected("scaling") {
		any = true
		rows, err := experiments.ScalingStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("scaling", experiments.ScalingTable(rows)); err != nil {
			return err
		}
	}
	if selected("heterogeneous") {
		any = true
		rows, err := experiments.HeterogeneousStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("heterogeneous", experiments.HeterogeneousTable(rows)); err != nil {
			return err
		}
	}
	if selected("topology") {
		any = true
		rows, err := experiments.TopologyStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("topology", experiments.TopologyTable(rows)); err != nil {
			return err
		}
	}
	if selected("sockets") {
		any = true
		rows, err := experiments.SocketStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("sockets", experiments.SocketTable(rows)); err != nil {
			return err
		}
	}
	if selected("faults") {
		any = true
		rows, err := experiments.FaultStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("faults", experiments.FaultTable(rows)); err != nil {
			return err
		}
	}
	if selected("intransit") {
		any = true
		rows, err := experiments.InTransitStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("intransit", experiments.InTransitTable(rows)); err != nil {
			return err
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
