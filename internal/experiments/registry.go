package experiments

import (
	"fmt"

	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
)

// Study is one entry of the evaluation. Run returns the study's
// full-precision result (JSON-encodable) and the text blocks it renders
// in print order: a *report.Table, a *report.BarChart or a string.
type Study struct {
	Name string
	Run  func(Config) (any, []fmt.Stringer, error)
}

// Studies is the whole evaluation in print order: the paper's tables,
// figures and headline, then the extension studies. cmd/experiments
// prints it and TestGolden pins it, so a study exists once it is listed
// here.
var Studies = []Study{
	{"table1", func(cfg Config) (any, []fmt.Stringer, error) {
		ens, out, err := table1(cfg)
		return ens, []fmt.Stringer{text(out)}, err
	}},
	{"table2", func(Config) (any, []fmt.Stringer, error) {
		return placement.ConfigsTable2(), []fmt.Stringer{Table2()}, nil
	}},
	{"table4", func(Config) (any, []fmt.Stringer, error) {
		return placement.ConfigsTable4(), []fmt.Stringer{Table4()}, nil
	}},
	{"fig3", tabled(Fig3, fig3Table)},
	{"fig4", tabled(Fig4, fig4Table)},
	{"fig5", tabled(Fig5, fig5Table)},
	{"fig6", func(cfg Config) (any, []fmt.Stringer, error) {
		m, out, err := fig6(cfg)
		return m, []fmt.Stringer{text(out)}, err
	}},
	{"fig7", tabled(Fig7, fig7Table)},
	{"fig8", indicatorFigure(Fig8, "Figure 8 — F(P_i) per indicator stage, one analysis per simulation",
		"Figure 8 (right panel) — F(P^{U,A,P})")},
	{"fig9", indicatorFigure(Fig9, "Figure 9 — F(P_i) per indicator stage, two analyses per simulation",
		"Figure 9 (right panel) — F(P^{U,A,P})")},
	{"headline", func(cfg Config) (any, []fmt.Stringer, error) {
		res, err := Headline(cfg)
		return res, []fmt.Stringer{text(res.String() + "\n")}, err
	}},
	{"tiers", tabled(TierStudy, tierTable)},
	{"validation", tabled(ModelValidation, validationTable)},
	{"buffers", tabled(BufferStudy, bufferTable)},
	{"aggregators", tabled(AggregatorStudy, aggregatorTable)},
	{"scaling", tabled(ScalingStudy, scalingTable)},
	{"heterogeneous", tabled(HeterogeneousStudy, heterogeneousTable)},
	{"topology", tabled(TopologyStudy, topologyTable)},
	{"sockets", tabled(SocketStudy, socketTable)},
	{"faults", tabled(FaultStudy, faultTable)},
	{"intransit", tabled(InTransitStudy, inTransitTable)},
}

// text is a block that is rendered already.
type text string

func (t text) String() string { return string(t) }

// tabled adapts a study that renders as one table.
func tabled[R any](study func(Config) (R, error), render func(R) *report.Table) func(Config) (any, []fmt.Stringer, error) {
	return func(cfg Config) (any, []fmt.Stringer, error) {
		r, err := study(cfg)
		if err != nil {
			return nil, nil, err
		}
		return r, []fmt.Stringer{render(r)}, nil
	}
}

// indicatorFigure adapts Figure 8 or 9: the per-stage table, then the
// final stage as a bar chart.
func indicatorFigure(study func(Config) ([]IndicatorRow, []indicators.Report, error), title, chartTitle string) func(Config) (any, []fmt.Stringer, error) {
	return func(cfg Config) (any, []fmt.Stringer, error) {
		rows, reports, err := study(cfg)
		if err != nil {
			return nil, nil, err
		}
		return reports, []fmt.Stringer{indicatorTable(title, rows), indicatorChart(chartTitle, rows)}, nil
	}
}
