//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// document is what the all-workloads mode prints: every metric by name,
// per workload, with its unit and sample count.
type document struct {
	Env       environment             `json:"env"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Why         string  `json:"why"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	// EndToEnd summarises the untraced runs; Info is the last untraced
	// run's ungated numbers; PerLayer comes from the traced run.
	EndToEnd map[string]summary `json:"end_to_end"`
	Info     map[string]metric  `json:"info"`
	PerLayer map[string]metric  `json:"per_layer"`
}

// summary is one end-to-end metric over the untraced runs of a workload:
// the median, and with two or more runs the quartiles and their distance
// as a share of the median, which is the spread the bound is held against.
type summary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Values []float64 `json:"values"`
}

func summarize(def metricDef, values []float64) summary {
	s := summary{Value: median(values), Unit: def.unit, N: len(values), Better: def.better, Bound: def.bound, Values: values}
	if len(values) >= 2 {
		s.Q1, s.Q3 = quartiles(values)
		s.Spread = (s.Q3 - s.Q1) / s.Value
	}
	return s
}

type suiteConfig struct {
	seed     int64
	window   time.Duration
	runs     int
	sets     int
	out      string
	traceOut string
}

// suiteRuns measures every workload cfg.sets times. One set goes to
// standard output (and -out); several go to numbered files, and the first
// two are compared against the bounds.
func suiteRuns(ctx context.Context, exe, dir string, cfg suiteConfig) int {
	code := 0
	var files []string
	for set := 1; set <= cfg.sets; set++ {
		doc, err := runSuite(ctx, exe, dir, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		for _, w := range doc.Workloads {
			if w.Failed > 0 {
				code = 1
			}
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		path := cfg.out
		if cfg.sets > 1 {
			if path == "" {
				path = filepath.Join(buildDir, "set.json")
			}
			ext := filepath.Ext(path)
			path = fmt.Sprintf("%s.%d%s", strings.TrimSuffix(path, ext), set, ext)
		} else {
			fmt.Println(string(b))
		}
		if path != "" {
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			files = append(files, path)
		}
	}
	if len(files) >= 2 {
		ok, err := compareFiles(os.Stdout, files[0], files[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// runSuite runs every workload: cfg.runs untraced runs on consecutive
// seeds, then one traced run with the layer probes.
func runSuite(ctx context.Context, exe, dir string, cfg suiteConfig) (*document, error) {
	doc := &document{
		Env:       currentEnvironment(cfg.seed, cfg.window, cfg.runs),
		Workloads: make(map[string]*workloadDoc),
	}
	for _, wl := range workloads {
		wd := &workloadDoc{Why: wl.why}
		values := make(map[string][]float64)
		base := runConfig{workload: wl, window: cfg.window}
		for r := 0; r < cfg.runs; r++ {
			rc := base
			rc.seed = cfg.seed + int64(r)
			fmt.Fprintf(os.Stderr, "bench: %s: run %d/%d (seed %d)\n", wl.name, r+1, cfg.runs, rc.seed)
			res, err := runOnce(ctx, exe, dir, rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
			printInfo(wl.name, res)
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			wd.Info = res.Info
			for k, m := range res.EndToEnd {
				values[k] = append(values[k], m.Value)
			}
		}
		wd.FailedShare = float64(wd.Failed) / float64(wd.Attempted)
		wd.EndToEnd = make(map[string]summary)
		for _, def := range endToEnd {
			wd.EndToEnd[def.name] = summarize(def, values[def.name])
		}

		rc := base
		rc.seed, rc.traced = cfg.seed, true
		if cfg.traceOut != "" {
			ext := filepath.Ext(cfg.traceOut)
			rc.traceOut = fmt.Sprintf("%s.%s%s", strings.TrimSuffix(cfg.traceOut, ext), wl.name, ext)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: traced run and layer probes\n", wl.name)
		res, err := runOnce(ctx, exe, dir, rc)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", wl.name, err)
		}
		printInfo(wl.name, res)
		wd.Failed += res.Failed
		wd.PerLayer = res.PerLayer
		// What recording spans and scraping cost: throughput of the traced
		// run against the median untraced one.
		untraced := wd.EndToEnd["campaigns_per_s"].Value
		wd.PerLayer["bench.trace_overhead_share"] = metric{
			1 - res.Info["campaigns_per_s.traced"].Value/untraced, "share", res.Attempted}
		doc.Workloads[wl.name] = wd
		printWorkload(os.Stderr, wl.name, wd)
	}
	return doc, nil
}

// printWorkload writes one workload's numbers as tables for a reader.
func printWorkload(w io.Writer, name string, wd *workloadDoc) {
	fmt.Fprintf(w, "\n== %s: %d campaigns, %d failed\n", name, wd.Attempted, wd.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tmedian\tunit\truns\tspread\tbound")
	for _, def := range endToEnd {
		s := wd.EndToEnd[def.name]
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%d\t%.1f%%\t%.0f%%\n", def.name, s.Value, s.Unit, s.N, 100*s.Spread, 100*s.Bound)
	}
	_ = tw.Flush()

	fmt.Fprintln(tw, "\nper-layer metric\tvalue\tunit\tsamples")
	names := make([]string, 0, len(wd.PerLayer))
	for k := range wd.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := wd.PerLayer[k]
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%d\n", k, m.Value, m.Unit, m.N)
	}
	_ = tw.Flush()

	// The traced run's server CPU per campaign is the base of the shares.
	explained := wd.PerLayer["budget.explained_share"].Value
	cpuMs := budgetUs(name, wd.PerLayer) / 1000 / explained
	fmt.Fprintf(tw, "\nbudget line (of %.4g ms server CPU per campaign, traced run)\tus each\tper campaign\tms\tshare\n", cpuMs)
	for _, l := range budgetLines(name, wd.PerLayer) {
		lineMs := l.us * l.count / 1000
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%.1f%%\n", l.probe, l.us, l.count, lineMs, 100*lineMs/cpuMs)
	}
	fmt.Fprintf(tw, "explained\t\t\t\t%.1f%%\n", 100*explained)
	_ = tw.Flush()
}

// compareFiles prints, for every workload the two documents share, each
// end-to-end metric with its relative change from a to b and its bound,
// and reports whether every change stays inside its bound and no workload
// failed more campaigns than before.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	return compareDocuments(w, a, b), nil
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// worsening is how far b is worse than a, as a share of a; negative when
// b is better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareDocuments(w io.Writer, a, b *document) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworse by\tbound\t")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			worse := worsening(def.better, ma.Value, mb.Value)
			verdict := ""
			if worse > def.bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, def.name, ma.Value, mb.Value, def.unit, 100*worse, 100*def.bound, verdict)
		}
		verdict := ""
		if wb.FailedShare > wa.FailedShare {
			verdict, ok = "EXCEEDS", false
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\tshare\t\tany increase\t%s\n", wl.name, wa.FailedShare, wb.FailedShare, verdict)
	}
	_ = tw.Flush()
	return ok
}
