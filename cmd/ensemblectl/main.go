// Command ensemblectl runs one workflow ensemble — a built-in Table 2/4
// configuration or a placement from a JSON file — on the simulated
// backend and reports the Table 1 metrics, the efficiency model, and the
// performance indicators.
//
// Usage:
//
//	ensemblectl -config C1.5 [-steps N]
//	            [-tier dimes|burstbuffer|pfs] [-jitter F] [-seed N]
//	            [-nodes N] [-trace FILE] [-placement FILE.json]
//	            [-obs FILE] [-trace-format chrome|summary]
//	            [-faults PLAN.json] [-degrade failfast|drop]
//	            [-retries N] [-retry-backoff S] [-stage-timeout S]
//	            [-restarts N] [-restart-delay S]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -faults loads a declarative fault plan (see examples/faultplan/) and
// injects it into the run; the resilience flags configure the recovery
// policy. With -degrade drop, members whose recovery budget is exhausted
// are dropped and the indicators aggregate over the survivors only.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/metrics"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
)

// obsOutput bundles the instrumentation export flags.
type obsOutput struct {
	path   string
	format string // "chrome" or "summary"
}

func (o obsOutput) enabled() bool { return o.path != "" }

// validate rejects unknown formats before the run starts.
func (o obsOutput) validate() error {
	if o.enabled() && o.format != "chrome" && o.format != "summary" {
		return fmt.Errorf("unknown -trace-format %q (chrome or summary)", o.format)
	}
	return nil
}

// write exports the event stream in the selected format.
func (o obsOutput) write(events []obs.Event) error {
	f, err := os.Create(o.path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch o.format {
	case "chrome":
		err = obs.WriteChromeTrace(f, events)
	case "summary":
		err = obs.WriteSummary(f, obs.Analyze(events))
	}
	if err != nil {
		return err
	}
	fmt.Printf("obs %s trace written to %s (chrome traces open in ui.perfetto.dev)\n", o.format, o.path)
	return nil
}

func main() {
	var (
		configName = flag.String("config", "C1.5", "built-in configuration name (Table 2/4)")
		plFile     = flag.String("placement", "", "JSON placement file (overrides -config)")
		steps      = flag.Int("steps", runtime.PaperSteps, "in situ steps")
		tier       = flag.String("tier", "dimes", "DTL tier")
		jitter     = flag.Float64("jitter", 0, "stage noise amplitude")
		seed       = flag.Int64("seed", 1, "RNG seed")
		nodes      = flag.Int("nodes", 0, "machine size (0 = fit the placement)")
		traceOut   = flag.String("trace", "", "write the execution trace as JSON to this file")
		compareArg = flag.String("compare", "", "comma-separated configuration names to run side by side")
		obsOut     = flag.String("obs", "", "write the instrumentation trace to this file")
		obsFormat  = flag.String("trace-format", "chrome", "obs output format: chrome (Perfetto JSON) or summary (text)")
		faultsFile = flag.String("faults", "", "JSON fault plan to inject (see examples/faultplan/)")
		degrade    = flag.String("degrade", "", "degradation mode once recovery is exhausted: failfast (default) or drop")
		retries    = flag.Int("retries", 0, "retry budget per staging stage for transient faults")
		retryBack  = flag.Float64("retry-backoff", 0, "delay before the first retry in seconds (doubles per retry)")
		stageTO    = flag.Float64("stage-timeout", 0, "per-attempt staging-stage timeout in seconds (0 = none)")
		restarts   = flag.Int("restarts", 0, "crash-restart budget per component")
		restartDel = flag.Float64("restart-delay", 0, "time a component restart takes in seconds")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	mode, err := runtime.ParseDegradationMode(*degrade)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ensemblectl: %v\n", err)
		os.Exit(1)
	}
	res := runtime.Resilience{
		StagingRetries: *retries,
		RetryBackoff:   *retryBack,
		StageTimeout:   *stageTO,
		RestartLimit:   *restarts,
		RestartDelay:   *restartDel,
		Mode:           mode,
	}
	if err := realMain(*configName, *plFile, *steps, *tier, *jitter, *seed, *nodes,
		*traceOut, *compareArg, obsOutput{path: *obsOut, format: *obsFormat},
		*faultsFile, res, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "ensemblectl: %v\n", err)
		os.Exit(1)
	}
}

func realMain(configName, plFile string, steps int, tier string, jitter float64,
	seed int64, nodes int, traceOut, compareArg string, obsOut obsOutput,
	faultsFile string, res runtime.Resilience, cpuProfile, memProfile string) error {

	if err := obsOut.validate(); err != nil {
		return err
	}
	var plan *faults.Plan
	if faultsFile != "" {
		f, err := os.Open(faultsFile)
		if err != nil {
			return err
		}
		p, err := faults.ReadJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("fault plan %s: %w", faultsFile, err)
		}
		plan = p
	}
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
				fmt.Fprintf(os.Stderr, "ensemblectl: heap profile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ensemblectl: heap profile: %v\n", err)
			}
		}()
	}
	if compareArg != "" {
		return compare(compareArg, steps, tier, jitter, seed)
	}
	return run(configName, plFile, steps, tier, jitter, seed, nodes, traceOut, obsOut, plan, res)
}

// compare runs several built-in configurations on the simulated backend
// and prints a side-by-side summary: makespan, mean efficiency, the final
// indicator objective, and straggling members.
func compare(names string, steps int, tier string, jitter float64, seed int64) error {
	t := report.NewTable("Configuration comparison",
		"config", "nodes", "makespan (s)", "mean E", "F(P^{U,A,P})", "stragglers")
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		p, ok := placement.ByName(name)
		if !ok {
			return fmt.Errorf("unknown configuration %q", name)
		}
		spec := cluster.Cori(maxNode(p) + 1)
		es := runtime.SpecForPlacement(p, steps)
		tr, err := runtime.RunSimulated(spec, p, es, runtime.SimOptions{
			Tier: tier, Jitter: jitter, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ens, err := metrics.FromTrace(tr)
		if err != nil {
			return err
		}
		effs, err := core.Efficiencies(tr.Members)
		if err != nil {
			return err
		}
		f, err := indicators.Objective(p, effs, indicators.StageUAP)
		if err != nil {
			return err
		}
		straggle := "none"
		if s := ens.Stragglers(0.05); len(s) > 0 {
			parts := make([]string, len(s))
			for i, st := range s {
				parts[i] = fmt.Sprintf("EM%d(+%.0f%%)", st.Index+1, 100*st.Excess)
			}
			straggle = strings.Join(parts, " ")
		}
		t.AddRow(name, p.M(), tr.Makespan(), stats.Mean(effs), f, straggle)
	}
	fmt.Println(t.String())
	return nil
}

func maxNode(p placement.Placement) int {
	max := 0
	for _, n := range p.UsedNodes() {
		if n > max {
			max = n
		}
	}
	return max
}

func run(configName, plFile string, steps int, tier string, jitter float64, seed int64, nodes int, traceOut string, obsOut obsOutput, plan *faults.Plan, res runtime.Resilience) error {
	var p placement.Placement
	if plFile != "" {
		f, err := os.Open(plFile)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err = placement.ReadJSON(f)
		if err != nil {
			return err
		}
	} else {
		var ok bool
		p, ok = placement.ByName(configName)
		if !ok {
			return fmt.Errorf("unknown configuration %q (try C_f, C_c, C1.1..C1.5, C2.1..C2.8)", configName)
		}
	}
	fmt.Println(p.String())

	if nodes <= 0 {
		for _, n := range p.UsedNodes() {
			if n+1 > nodes {
				nodes = n + 1
			}
		}
	}
	spec := cluster.Cori(nodes)
	es := runtime.SpecForPlacement(p, steps)
	var rec *obs.Recorder
	if obsOut.enabled() {
		// Live instrumentation: the engine, DTL, fabric, and stage
		// loop feed the recorder as the run unfolds.
		rec = obs.NewRecorder(nil)
	}
	tr, err := runtime.RunSimulated(spec, p, es, runtime.SimOptions{
		Tier: tier, Jitter: jitter, Seed: seed, Recorder: rec,
		Faults: plan, Resilience: res,
	})
	if err != nil {
		return err
	}
	if obsOut.enabled() {
		if err := obsOut.write(rec.Events()); err != nil {
			return err
		}
	}

	// Table 1 metrics.
	ens, err := metrics.FromTrace(tr)
	if err != nil {
		return err
	}
	ct := report.NewTable("Component metrics (Table 1)",
		"component", "exec time (s)", "LLC miss ratio", "memory intensity", "IPC")
	for _, c := range ens.Components {
		ct.AddRow(c.Name, c.ExecutionTime, c.LLCMissRatio, c.MemoryIntensity, c.IPC)
	}
	fmt.Println(ct.String())

	// Efficiency model per member. Dropped members (degradation mode
	// "drop") are annotated and excluded from the indicator aggregation.
	mt := report.NewTable("Efficiency model (Equations 1-3)",
		"member", "S*+W* (s)", "sigma (s)", "E", "Eq.4", "makespan (s)", "predicted (s)")
	var effs []float64
	for i, m := range tr.Members {
		if m.Dropped() {
			mt.AddRow(fmt.Sprintf("EM%d (dropped)", i+1), "-", "-", "-", "-", m.Makespan(), "-")
			continue
		}
		ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
		if err != nil {
			return err
		}
		e, err := ss.Efficiency()
		if err != nil {
			return err
		}
		effs = append(effs, e)
		mt.AddRow(fmt.Sprintf("EM%d", i+1), ss.SimBusy(), ss.Sigma(), e,
			ss.SatisfiesEq4(), m.Makespan(), ss.Makespan(len(m.Simulation.Steps)))
	}
	fmt.Println(mt.String())
	fmt.Printf("Ensemble makespan: %s\n\n", report.FormatFloat(tr.Makespan()))
	if d := tr.DroppedMembers(); len(d) > 0 {
		fmt.Printf("Dropped members: %d of %d (excluded from the indicators below)\n\n", len(d), len(tr.Members))
	}

	// Indicators over the surviving members (Eq. 9).
	if len(effs) == 0 {
		fmt.Println("No surviving members; indicators skipped.")
	} else {
		rep, err := indicators.FullReport(p.Without(tr.DroppedMembers()), effs)
		if err != nil {
			return err
		}
		it := report.NewTable("Performance indicators (Equations 5-9)",
			"stage", "F(P_i)")
		for _, s := range indicators.AllStages() {
			it.AddRow("F(P^{"+s.String()+"})", rep.PerStage[s.String()])
		}
		fmt.Println(it.String())
	}

	// Resource accounting: the same core-second ledger ensembled keeps
	// per campaign (GET /v1/campaigns/{id}/accounting), derived for this
	// single run.
	fmt.Println(report.Ledger(accounting.FromTrace(tr)).String())

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", traceOut)
	}
	return nil
}
