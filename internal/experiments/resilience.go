package experiments

// Resilience extension: degradation curves under injected staging
// faults. The paper's evaluation assumes fault-free runs; this study
// quantifies how the Table 2 placements degrade when the staging layer
// becomes unreliable and the runtime recovers with retries and the
// drop-member policy (ISSUE: fault-rate vs makespan/efficiency).

import (
	"fmt"

	"ensemblekit/internal/core"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
)

// FaultRates is the staging-failure sweep of the fault study: from the
// fault-free baseline to a heavily degraded staging service.
var FaultRates = []float64{0, 0.02, 0.05, 0.1, 0.2}

// FaultRow aggregates one (configuration, fault rate) cell across trials.
type FaultRow struct {
	Config   string
	Rate     float64
	Makespan float64 // mean ensemble makespan (s)
	Slowdown float64 // makespan relative to the fault-free baseline

	// Objective is F(P) (Eq. 9) over surviving members only.
	Objective float64
	// Retries is the mean number of recovered staging attempts per run.
	Retries float64
	// Dropped is the mean number of members dropped per run.
	Dropped float64
}

// FaultStudy sweeps the staging fault rate over the Table 2 placements
// under the retry + drop-member resilience policy and reports the
// makespan/efficiency degradation curves. Every run uses a seeded fault
// plan, so the study is deterministic for a given Config.
func FaultStudy(cfg Config) ([]FaultRow, error) {
	cfg = cfg.Defaults()
	spec := cfg.spec()
	var rows []FaultRow
	for _, p := range placement.ConfigsTable2() {
		base := -1.0
		for _, rate := range FaultRates {
			row := FaultRow{Config: p.Name, Rate: rate}
			var ms, objs, retries, drops []float64
			es := runtime.SpecForPlacement(p, cfg.Steps)
			for t := 0; t < cfg.Trials; t++ {
				opts := cfg.trialOptions(t)
				opts.Resilience = runtime.Resilience{
					StagingRetries: 3,
					RetryBackoff:   0.05,
					Mode:           runtime.DropMember,
				}
				if rate > 0 {
					opts.Faults = &faults.Plan{
						Name: fmt.Sprintf("rate-%g", rate),
						Seed: cfg.BaseSeed + int64(t),
						Staging: []faults.StagingFault{
							{Tier: cfg.Tier, Rate: rate},
						},
					}
				}
				tr, err := runtime.RunSimulated(spec, p, es, opts)
				if err != nil {
					return nil, fmt.Errorf("experiments: faults %s rate %g trial %d: %w", p.Name, rate, t, err)
				}
				obj, err := survivorObjective(p, tr)
				if err != nil {
					return nil, fmt.Errorf("experiments: faults %s rate %g trial %d: %w", p.Name, rate, t, err)
				}
				ms = append(ms, tr.Makespan())
				objs = append(objs, obj)
				retries = append(retries, float64(totalRetries(tr)))
				drops = append(drops, float64(len(tr.DroppedMembers())))
			}
			row.Makespan = stats.Mean(ms)
			row.Objective = stats.Mean(objs)
			row.Retries = stats.Mean(retries)
			row.Dropped = stats.Mean(drops)
			if base < 0 {
				base = row.Makespan
			}
			if base > 0 {
				row.Slowdown = row.Makespan / base
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// survivorObjective evaluates F(P) (Eq. 9) over the members that
// survived the run: dropped members contribute neither efficiency nor
// resource shares to the objective. An ensemble with no survivors scores
// zero.
func survivorObjective(p placement.Placement, tr *trace.EnsembleTrace) (float64, error) {
	effs, err := core.Efficiencies(tr.SurvivingMembers())
	if err != nil || len(effs) == 0 {
		return 0, err
	}
	return indicators.Objective(p.Without(tr.DroppedMembers()), effs, indicators.StageUAP)
}

// totalRetries counts the recovered staging attempts recorded in the
// trace.
func totalRetries(tr *trace.EnsembleTrace) int {
	n := 0
	for _, c := range tr.Components() {
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				n += st.Retries
			}
		}
	}
	return n
}

// faultTable renders the fault study.
func faultTable(rows []FaultRow) *report.Table {
	t := report.NewTable("Extension — staging-fault degradation (retries + drop-member policy)",
		"config", "fault rate", "makespan (s)", "slowdown", "F(P) survivors", "retries", "dropped")
	for _, r := range rows {
		t.AddRow(r.Config, r.Rate, r.Makespan, r.Slowdown, r.Objective, r.Retries, r.Dropped)
	}
	return t
}
