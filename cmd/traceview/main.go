// Command traceview inspects an execution trace produced by ensemblectl
// -trace (or the library's WriteJSON): per-component stage statistics, the
// efficiency model's verdict per member, and an ASCII timeline of the
// first steps. With -spans it also consumes an OTLP span file (the
// payload of GET /v1/jobs/{id}/spans), prints the job's critical-path
// breakdown, and folds the service-level spans into the -obs export.
//
// Usage:
//
//	traceview [-steps N] [-width N] [-csv FILE] [-obs FILE] [-spans FILE] [-utilization] FILE.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/core"
	"ensemblekit/internal/metrics"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/report"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

func main() {
	var (
		steps       = flag.Int("steps", 4, "timeline: number of leading steps to draw")
		width       = flag.Int("width", 100, "timeline width in characters")
		csvOut      = flag.String("csv", "", "also export every stage as CSV to this file")
		obsOut      = flag.String("obs", "", "export a Chrome/Perfetto trace of the run to this file")
		spansIn     = flag.String("spans", "", "OTLP span file (GET /v1/jobs/{id}/spans): print the critical path; with -obs, merge service spans into the export")
		utilization = flag.Bool("utilization", false, "print the per-node core-occupancy table")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceview [-steps N] [-width N] [-csv FILE] [-obs FILE] [-spans FILE] [-utilization] FILE.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *steps, *width, *csvOut, *obsOut, *spansIn, *utilization); err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, steps, width int, csvOut, obsOut, spansIn string, utilization bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace is structurally invalid: %w", err)
	}
	fmt.Printf("trace: config=%s backend=%s members=%d ensemble makespan=%s\n\n",
		tr.Config, tr.Backend, len(tr.Members), report.FormatFloat(tr.Makespan()))

	// Per-component stage statistics.
	st := report.NewTable("Per-component stage durations (mean over steps)",
		"component", "steps", "S/R (s)", "I^S/A (s)", "W/I^A (s)", "exec time (s)")
	for _, c := range tr.Components() {
		order := trace.SimulationStages()
		if c.Kind == trace.KindAnalysis {
			order = trace.AnalysisStages()
		}
		means := make([]float64, len(order))
		for i, s := range order {
			means[i] = stats.Mean(c.StageDurations(s))
		}
		st.AddRow(c.Name, len(c.Steps), means[0], means[1], means[2], c.ExecutionTime())
	}
	fmt.Println(st.String())

	// Table 1 metrics.
	ens, err := metrics.FromTrace(tr)
	if err != nil {
		return err
	}
	mt := report.NewTable("Table 1 metrics", "component", "LLC miss ratio", "memory intensity", "IPC")
	for _, c := range ens.Components {
		mt.AddRow(c.Name, c.LLCMissRatio, c.MemoryIntensity, c.IPC)
	}
	fmt.Println(mt.String())

	// Efficiency model per member.
	et := report.NewTable("Efficiency model", "member", "sigma (s)", "E", "Eq.4", "makespan (s)")
	for i, m := range tr.Members {
		ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
		if err != nil {
			return err
		}
		e, err := ss.Efficiency()
		if err != nil {
			return err
		}
		et.AddRow(fmt.Sprintf("EM%d", i+1), ss.Sigma(), e, ss.SatisfiesEq4(), m.Makespan())
	}
	fmt.Println(et.String())

	// Core-second ledger of the run, split by component class — the
	// trace-side view of the campaign accounting endpoint.
	fmt.Println(report.Ledger(accounting.FromTrace(tr)).String())

	// Timeline of the leading steps.
	g := report.NewGantt(fmt.Sprintf("Timeline (first %d steps; S/W simulation, R/A analysis)", steps), width)
	glyphs := map[trace.Stage]rune{
		trace.StageS: 'S', trace.StageW: 'W',
		trace.StageR: 'R', trace.StageA: 'A',
	}
	for _, c := range tr.Components() {
		row := g.AddRow(c.Name)
		for si, step := range c.Steps {
			if si >= steps {
				break
			}
			for _, sr := range step.Stages {
				if glyph, ok := glyphs[sr.Stage]; ok {
					g.AddSpan(row, sr.Start, sr.End(), glyph)
				}
			}
		}
	}
	fmt.Println(g.String())

	if utilization {
		// Per-node occupancy reconstructed from the trace's component
		// spans (the live event stream offers the same table via
		// ensemblectl -obs -trace-format summary).
		m := obs.Analyze(obs.FromTrace(tr))
		fmt.Println("## Per-node core occupancy")
		if err := obs.WriteUtilization(os.Stdout, m); err != nil {
			return err
		}
		fmt.Println()
	}

	var spans []tracing.SpanData
	if spansIn != "" {
		sf, err := os.Open(spansIn)
		if err != nil {
			return err
		}
		spans, err = tracing.ReadOTLP(sf)
		sf.Close()
		if err != nil {
			return err
		}
		if err := printCriticalPath(spans); err != nil {
			return err
		}
	}

	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteStepsCSV(f); err != nil {
			return err
		}
		fmt.Printf("per-stage CSV written to %s\n", csvOut)
	}

	if obsOut != "" {
		f, err := os.Create(obsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events := obs.FromTrace(tr)
		var toVirtual func(time.Time) float64
		if job, ok := jobRoot(spans); ok {
			toVirtual = obs.InverseMap(spans, job.SpanID)
		}
		if toVirtual != nil {
			err = obs.WriteChromeTraceWithSpans(f, events, spans, toVirtual)
		} else {
			err = obs.WriteChromeTrace(f, events)
		}
		if err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", obsOut)
	}
	return nil
}

// printCriticalPath renders the critical-path report of the job span in
// spans — or of the trace root when no job span is present (a foreign
// OTLP file) — in the same table style as the trace statistics.
func printCriticalPath(spans []tracing.SpanData) error {
	root, ok := jobRoot(spans)
	if !ok {
		return fmt.Errorf("span file holds no spans")
	}
	cp, err := tracing.ComputeCriticalPath(spans, root.SpanID)
	if err != nil {
		return err
	}
	fmt.Printf("spans: trace=%s root=%q depth=%d spans=%d critical-path segments=%d total=%.3fs\n\n",
		cp.TraceID, cp.RootName, tracing.Depth(spans), len(spans), len(cp.Segments), cp.TotalSec)
	bt := report.NewTable("Critical path by span kind", "kind", "seconds", "share")
	for _, k := range cp.ByKind {
		bt.AddRow(k.Kind, k.Sec, k.Frac)
	}
	fmt.Println(bt.String())
	return nil
}

// jobRoot picks the critical-path root: the earliest span of kind "job"
// (the /v1/jobs/{id}/spans payload holds the whole trace, and the job —
// not the HTTP request — is what the latency question is about), falling
// back to the trace root for span files from other producers.
func jobRoot(spans []tracing.SpanData) (tracing.SpanData, bool) {
	var job tracing.SpanData
	found := false
	for _, d := range spans {
		if d.Kind != "job" {
			continue
		}
		if !found || d.Start.Before(job.Start) {
			job, found = d, true
		}
	}
	if found {
		return job, true
	}
	return tracing.FindRoot(spans)
}
