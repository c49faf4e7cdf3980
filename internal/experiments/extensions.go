package experiments

// Extensions beyond the paper's evaluation: ablations of the design
// choices DESIGN.md calls out (DTL tier, staging buffer depth, objective
// aggregation) and the explicit model-validation study the paper performs
// implicitly.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
)

// TierRow compares one configuration on one DTL tier.
type TierRow struct {
	Config   string
	Tier     string
	Makespan float64
}

// TierStudy quantifies the in situ motivation: the same ensembles staged
// through in-memory DIMES, a burst buffer, and the parallel file system.
func TierStudy(cfg Config) ([]TierRow, error) {
	cfg = cfg.Defaults()
	var rows []TierRow
	for _, p := range []placement.Placement{placement.Cc(), placement.Cf(), placement.C15()} {
		for _, tier := range []string{runtime.TierDimes, runtime.TierBurstBuffer, runtime.TierPFS} {
			c := cfg
			c.Tier = tier
			traces, err := runConfig(c, p)
			if err != nil {
				return nil, err
			}
			var ms []float64
			for _, tr := range traces {
				ms = append(ms, tr.Makespan())
			}
			rows = append(rows, TierRow{Config: p.Name, Tier: tier, Makespan: stats.Mean(ms)})
		}
	}
	return rows, nil
}

// tierTable renders the tier study.
func tierTable(rows []TierRow) *report.Table {
	t := report.NewTable("Extension — DTL tier comparison (in-memory vs burst buffer vs PFS)",
		"config", "tier", "makespan (s)")
	for _, r := range rows {
		t.AddRow(r.Config, r.Tier, r.Makespan)
	}
	return t
}

// ValidationRow compares the Equation 2 makespan prediction against the
// measured member makespan.
type ValidationRow struct {
	Config        string
	Member        int
	Predicted     float64
	Measured      float64
	RelativeError float64
}

// ModelValidation runs every Table 2 and Table 4 configuration and checks
// how well the steady-state model (Equations 1-2) predicts the measured
// member makespans — the evidence that σ̄* captures member behaviour.
func ModelValidation(cfg Config) ([]ValidationRow, error) {
	cfg = cfg.Defaults()
	var rows []ValidationRow
	for _, p := range append(placement.ConfigsTable2(), placement.ConfigsTable4()...) {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, err
		}
		for i := range p.Members {
			var pred, meas []float64
			for _, tr := range traces {
				rep, err := core.ValidateModel(tr.Members[i], core.ExtractOptions{})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s member %d: %w", p.Name, i, err)
				}
				pred = append(pred, rep.Predicted)
				meas = append(meas, rep.Measured)
			}
			row := ValidationRow{
				Config:    p.Name,
				Member:    i + 1,
				Predicted: stats.Mean(pred),
				Measured:  stats.Mean(meas),
			}
			if row.Measured > 0 {
				row.RelativeError = math.Abs(row.Predicted-row.Measured) / row.Measured
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// validationTable renders the model-validation study.
func validationTable(rows []ValidationRow) *report.Table {
	t := report.NewTable("Extension — Equation 2 makespan prediction vs measurement",
		"config", "member", "predicted (s)", "measured (s)", "rel. error")
	for _, r := range rows {
		t.AddRow(r.Config, r.Member, r.Predicted, r.Measured, r.RelativeError)
	}
	return t
}

// BufferRow reports one staging-buffer depth.
type BufferRow struct {
	Config   string
	Slots    int
	Makespan float64
}

// BufferStudy relaxes the paper's no-buffering assumption (Section 3.1
// assumes one staging slot): how much does buffer depth help a
// contention-bound configuration under stage-time jitter?
func BufferStudy(cfg Config) ([]BufferRow, error) {
	cfg = cfg.Defaults()
	if cfg.Jitter <= 0 {
		cfg.Jitter = 0.05 // buffering only matters under variance
	}
	var rows []BufferRow
	for _, p := range []placement.Placement{placement.C14(), placement.C15()} {
		for _, slots := range []int{1, 2, 4} {
			spec := cfg.spec()
			es := runtime.SpecForPlacement(p, cfg.Steps)
			var ms []float64
			for t := 0; t < cfg.Trials; t++ {
				opts := cfg.trialOptions(t)
				opts.StagingSlots = slots
				tr, err := runtime.RunSimulated(spec, p, es, opts)
				if err != nil {
					return nil, err
				}
				ms = append(ms, tr.Makespan())
			}
			rows = append(rows, BufferRow{Config: p.Name, Slots: slots, Makespan: stats.Mean(ms)})
		}
	}
	return rows, nil
}

// bufferTable renders the buffer study.
func bufferTable(rows []BufferRow) *report.Table {
	t := report.NewTable("Extension — staging buffer depth (paper assumes 1 slot)",
		"config", "slots", "makespan (s)")
	for _, r := range rows {
		t.AddRow(r.Config, r.Slots, r.Makespan)
	}
	return t
}

// AggregatorRow reports one configuration's rank under one aggregator.
type AggregatorRow struct {
	Aggregator string
	Ranking    []string // configuration names, best first
}

// AggregatorStudy asks how sensitive the paper's conclusions are to the
// choice of Equation 9's aggregation: it ranks the Table 4 configurations
// under mean-std (the paper), mean, min, and median.
func AggregatorStudy(cfg Config) ([]AggregatorRow, error) {
	cfg = cfg.Defaults()
	type scored struct {
		name string
		v    float64
	}
	perAgg := make(map[indicators.Aggregator][]scored)
	for _, p := range placement.ConfigsTable4() {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, err
		}
		effs, err := memberEfficiencies(traces)
		if err != nil {
			return nil, err
		}
		values, err := indicators.PerMember(p, effs, indicators.StageUAP)
		if err != nil {
			return nil, err
		}
		objs, err := indicators.AggregateObjective(values, indicators.Aggregators())
		if err != nil {
			return nil, err
		}
		for a, v := range objs {
			perAgg[a] = append(perAgg[a], scored{name: p.Name, v: v})
		}
	}
	var rows []AggregatorRow
	for _, a := range indicators.Aggregators() {
		s := perAgg[a]
		sort.SliceStable(s, func(i, j int) bool { return s[i].v > s[j].v })
		names := make([]string, len(s))
		for i, x := range s {
			names[i] = x.name
		}
		rows = append(rows, AggregatorRow{Aggregator: string(a), Ranking: names})
	}
	return rows, nil
}

// aggregatorTable renders the aggregator study.
func aggregatorTable(rows []AggregatorRow) *report.Table {
	t := report.NewTable("Extension — ranking sensitivity to the Equation 9 aggregator",
		"aggregator", "ranking (best first)")
	for _, r := range rows {
		t.AddRow(r.Aggregator, strings.Join(r.Ranking, " > "))
	}
	return t
}
