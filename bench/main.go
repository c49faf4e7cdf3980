//go:build linux

// Command bench is the repository's benchmark: a closed-loop HTTP load
// driver against the real cmd/ensembled binary (one node, and a 3-node
// pool), with a traced run and in-process layer probes that break the
// end-to-end numbers down by package. See README.md in this directory.
//
// One run of one workload, as the benchmark contract calls it:
//
//	go run ./bench -workload warm -seed 7 -seconds 20 -trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
//
// Without -workload it runs every workload (-runs untraced runs each, on
// seeds seed, seed+1, ..., then one traced run) and prints one JSON
// document with every metric by name; -sets N does that N times into
// numbered files and compares the first two; -compare a.json b.json
// compares two such documents against the bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the contract's result line (default: run all of them)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same request bodies")
		seconds      = flag.Int("seconds", 20, "length of each timed window")
		trace        = flag.Int("trace", 0, "with -workload: 1 records benchmark-side spans, scrapes the counters, runs the layer probes and prints the per-layer metrics")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		runs         = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload; the median is reported")
		out          = flag.String("out", "", "all-workloads mode: also write the JSON document to this file")
		sets         = flag.Int("sets", 1, "all-workloads mode: repeat everything N times into <out>.1.json ... and compare the first two")
		compare      = flag.Bool("compare", false, "compare two documents written with -out: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 || *runs < 1 || *sets < 1 {
		fatal(errors.New("-seconds, -runs and -sets must be at least 1"))
	}

	// Every exit path runs through here: a signal cancels ctx, the run
	// unwinds, and the deferred clean-up kills the servers and removes the
	// scratch directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := func() int {
		defer stop()
		dir, exe, cleanup, err := prepare(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defer cleanup()
		window := time.Duration(*seconds) * time.Second
		if *workloadName != "" {
			wl, ok := workloadByName(*workloadName)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, workloadNames())
				return 1
			}
			return contractRun(ctx, exe, dir, runConfig{
				workload: wl, seed: *seed, window: window, traced: *trace != 0, traceOut: *traceOut,
			})
		}
		return suiteRuns(ctx, exe, dir, suiteConfig{
			seed: *seed, window: window, runs: *runs, sets: *sets, out: *out, traceOut: *traceOut,
		})
	}()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// buildDir is where the benchmark keeps everything it writes: inside the
// checkout it runs in, and named in the repository's .gitignore.
const buildDir = ".bench_build"

// prepare makes the scratch directory and builds the server into it.
func prepare(ctx context.Context) (dir, exe string, cleanup func(), err error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", "", nil, err
	}
	dir, err = os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", "", nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", "", nil, err
	}
	cleanup = func() { _ = os.RemoveAll(dir) }
	if exe, err = buildServer(ctx, dir); err != nil {
		cleanup()
		return "", "", nil, err
	}
	return dir, exe, cleanup, nil
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractRun runs one workload once and prints the result line. Any
// failed campaign or fingerprint mismatch is reported in the line and
// makes the exit code non-zero.
func contractRun(ctx context.Context, exe, dir string, cfg runConfig) int {
	res, err := runOnce(ctx, exe, dir, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload.name, err)
		return 1
	}
	printInfo(cfg.workload.name, res)
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if cfg.traced {
		line.Metrics = res.PerLayer
	}
	for k, m := range line.Metrics {
		m.N = 0 // the contract's metric objects hold value and unit only
		line.Metrics[k] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct() {
		return 1
	}
	return 0
}

// printInfo writes what is measured but not gated, and any failures, to
// standard error.
func printInfo(name string, res *runResult) {
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Info[k]
		fmt.Fprintf(os.Stderr, "bench: %s: %s = %.4g %s (n=%d)\n", name, k, m.Value, m.Unit, m.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", name, e)
	}
}

// environment records where a document was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	Clients    int    `json:"clients"`
}

func currentEnvironment(seed int64, window time.Duration, runs int) environment {
	commit := "unknown" // the contract's checkout is not a git repository
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: int(window / time.Second), Runs: runs, Clients: clients(),
	}
}
