package experiments

import (
	"fmt"
	"math"

	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
)

// IndicatorRow is one point of Figures 8/9: the objective F of a
// configuration at one indicator stage.
type IndicatorRow struct {
	Config string
	Stage  string
	F      float64
}

// indicatorStudy evaluates F(P_i) at every stage of both evaluation paths
// for a set of configurations — the computation behind Figures 8 and 9.
func indicatorStudy(cfg Config, configs []placement.Placement) ([]IndicatorRow, []indicators.Report, error) {
	cfg = cfg.Defaults()
	var rows []IndicatorRow
	var reports []indicators.Report
	for _, p := range configs {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, nil, err
		}
		effs, err := memberEfficiencies(traces)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", p.Name, err)
		}
		rep, err := indicators.FullReport(p, effs)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", p.Name, err)
		}
		reports = append(reports, rep)
		for _, s := range indicators.AllStages() {
			rows = append(rows, IndicatorRow{Config: p.Name, Stage: s.String(), F: rep.PerStage[s.String()]})
		}
	}
	return rows, reports, nil
}

// Fig8 reproduces Figure 8: F(P_i) at each indicator stage over the
// one-analysis-per-simulation configurations C1.1-C1.5.
func Fig8(cfg Config) ([]IndicatorRow, []indicators.Report, error) {
	return indicatorStudy(cfg, placement.ConfigsTable2TwoMember())
}

// Fig9 reproduces Figure 9: the same study over the two-analyses-per-
// simulation configurations C2.1-C2.8.
func Fig9(cfg Config) ([]IndicatorRow, []indicators.Report, error) {
	return indicatorStudy(cfg, placement.ConfigsTable4())
}

// indicatorTable renders Figure 8/9 data with one column per stage.
func indicatorTable(title string, rows []IndicatorRow) *report.Table {
	stages := []string{"U", "U,P", "U,A", "U,A,P"}
	t := report.NewTable(title, append([]string{"config"},
		[]string{"F(P^U)", "F(P^{U,P})", "F(P^{U,A})", "F(P^{U,A,P})"}...)...)
	byConfig := map[string]map[string]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byConfig[r.Config]; !ok {
			byConfig[r.Config] = map[string]float64{}
			order = append(order, r.Config)
		}
		byConfig[r.Config][r.Stage] = r.F
	}
	for _, name := range order {
		cells := []any{name}
		for _, s := range stages {
			cells = append(cells, byConfig[name][s])
		}
		t.AddRow(cells...)
	}
	return t
}

// indicatorChart renders the final-stage objective of Figure 8/9 data as
// an ASCII bar chart (the figures' visual form).
func indicatorChart(title string, rows []IndicatorRow) *report.BarChart {
	chart := report.NewBarChart(title, 50)
	for _, r := range rows {
		if r.Stage == indicators.StageUAP.String() {
			chart.AddBar(r.Config, r.F)
		}
	}
	return chart
}

// Headline quantifies the abstract's claim — the indicator improvement of
// full coupling co-location — by comparing F(P^{U,A,P}) of the best
// co-located configuration against the worst configuration across the
// Table 2 and Table 4 sets plus a deliberately over-provisioned spread
// placement (every component on a dedicated node of a larger allocation).
type HeadlineResult struct {
	// Best and Worst are the extreme configurations.
	Best, Worst string
	// BestF and WorstF are their objective values.
	BestF, WorstF float64
	// Ratio is BestF / WorstF.
	Ratio float64
	// OrdersOfMagnitude is log10(Ratio).
	OrdersOfMagnitude float64
}

// Headline runs the headline comparison.
func Headline(cfg Config) (HeadlineResult, error) {
	cfg = cfg.Defaults()
	configs := append(placement.ConfigsTable2TwoMember(), placement.ConfigsTable4()...)
	// The over-provisioned straggler: member 1 fully co-located, member 2
	// spread across dedicated nodes of a 6-node allocation with
	// deliberately starved analyses is representable only via core counts
	// we keep fixed; spreading alone already wastes provisioned nodes.
	spread := placement.Placement{
		Name: "spread-6",
		Members: []placement.Member{
			{
				Simulation: placement.Component{Nodes: []int{0}, Cores: placement.SimCores},
				Analyses: []placement.Component{
					{Nodes: []int{1}, Cores: placement.AnalysisCores},
					{Nodes: []int{2}, Cores: placement.AnalysisCores},
				},
			},
			{
				Simulation: placement.Component{Nodes: []int{3}, Cores: placement.SimCores},
				Analyses: []placement.Component{
					{Nodes: []int{4}, Cores: placement.AnalysisCores},
					{Nodes: []int{5}, Cores: placement.AnalysisCores},
				},
			},
		},
	}
	configs = append(configs, spread)

	res := HeadlineResult{BestF: math.Inf(-1), WorstF: math.Inf(1)}
	for _, p := range configs {
		c := cfg
		c.Nodes = max(c.Nodes, p.M())
		traces, err := runConfig(c, p)
		if err != nil {
			return HeadlineResult{}, err
		}
		effs, err := memberEfficiencies(traces)
		if err != nil {
			return HeadlineResult{}, err
		}
		f, err := indicators.Objective(p, effs, indicators.StageUAP)
		if err != nil {
			return HeadlineResult{}, err
		}
		if f > res.BestF {
			res.BestF, res.Best = f, p.Name
		}
		if f < res.WorstF {
			res.WorstF, res.Worst = f, p.Name
		}
	}
	if res.WorstF > 0 {
		res.Ratio = res.BestF / res.WorstF
		res.OrdersOfMagnitude = math.Log10(res.Ratio)
	} else {
		res.Ratio = math.Inf(1)
		res.OrdersOfMagnitude = math.Inf(1)
	}
	return res, nil
}

// String summarizes the headline result.
func (h HeadlineResult) String() string {
	return fmt.Sprintf(
		"Headline: best F(P^{U,A,P}) = %s (%s), worst = %s (%s); improvement %.1fx (%.1f orders of magnitude)",
		report.FormatFloat(h.BestF), h.Best,
		report.FormatFloat(h.WorstF), h.Worst,
		h.Ratio, h.OrdersOfMagnitude)
}
