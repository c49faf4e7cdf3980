// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 2.3 and Section 5.2) on the simulated platform:
// Figures 3-5 (traditional metrics over the Table 2 configurations),
// Figure 6 (stage timeline), Figure 7 (analysis core sweep), Figures 8-9
// (the multi-stage indicator objective over Tables 2 and 4), plus the
// configuration tables themselves and the abstract's co-location headline.
// Studies lists them, and the extension studies after them, in print
// order: cmd/experiments prints that list and TestGolden pins it.
//
// Absolute values are calibrated to the paper's scales (a ~10 s simulation
// step); the reproduction target is the shape of each result — orderings,
// groupings and crossovers — as recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Trials is the number of repetitions averaged (the paper averages
	// over 5 trials). Default 5.
	Trials int
	// Steps is the in situ step count. Default runtime.PaperSteps (37).
	Steps int
	// Jitter is the per-stage noise amplitude. Default 0.02.
	Jitter float64
	// BaseSeed seeds trial t with BaseSeed + t.
	BaseSeed int64
	// Nodes sizes the simulated machine. Default 3 (the largest Table 2/4
	// allocation).
	Nodes int
	// Tier selects the DTL (default DIMES, as in the paper).
	Tier string
}

// Defaults fills zero fields with the paper's settings.
func (c Config) Defaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Steps <= 0 {
		c.Steps = runtime.PaperSteps
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Tier == "" {
		c.Tier = runtime.TierDimes
	}
	return c
}

// Quick returns a configuration for fast runs (tests, benches): fewer
// steps and trials, no jitter.
func Quick() Config {
	return Config{Trials: 1, Steps: 8, Jitter: -1, Nodes: 3}.Defaults()
}

func (c Config) spec() cluster.Spec { return cluster.Cori(c.Nodes) }

func (c Config) jitter() float64 {
	if c.Jitter < 0 {
		return 0
	}
	return c.Jitter
}

// trialOptions builds the simulation options of trial t.
func (c Config) trialOptions(t int) runtime.SimOptions {
	return runtime.SimOptions{
		Tier:   c.Tier,
		Jitter: c.jitter(),
		Seed:   c.BaseSeed + int64(t),
	}
}

// runConfig executes one placement configuration Trials times, in trial
// order.
func runConfig(cfg Config, p placement.Placement) ([]*trace.EnsembleTrace, error) {
	spec := cfg.spec()
	es := runtime.SpecForPlacement(p, cfg.Steps)
	out := make([]*trace.EnsembleTrace, 0, cfg.Trials)
	for t := 0; t < cfg.Trials; t++ {
		tr, err := runtime.RunSimulated(spec, p, es, cfg.trialOptions(t))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s trial %d: %w", p.Name, t, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// memberEfficiencies returns the per-member efficiency E_i of each trace,
// averaged across trials.
func memberEfficiencies(traces []*trace.EnsembleTrace) ([]float64, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("experiments: no traces")
	}
	n := len(traces[0].Members)
	perMember := make([][]float64, n)
	for _, tr := range traces {
		if len(tr.Members) != n {
			return nil, fmt.Errorf("experiments: inconsistent member counts across trials")
		}
		effs, err := core.Efficiencies(tr.Members)
		if err != nil {
			return nil, err
		}
		for i, e := range effs {
			perMember[i] = append(perMember[i], e)
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = stats.Mean(perMember[i])
	}
	return out, nil
}
