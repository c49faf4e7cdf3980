package experiments

import (
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/heuristic"
	"ensemblekit/internal/kernels"
	"ensemblekit/internal/metrics"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
)

// Fig3Row is one bar group of Figure 3: a configuration's component-level
// metrics, averaged per component kind over trials.
type Fig3Row struct {
	Config          string
	Kind            string
	ExecutionTime   float64
	LLCMissRatio    float64
	MemoryIntensity float64
	IPC             float64
}

// Fig3 reproduces Figure 3: the Table 1 component-level metrics over every
// Table 2 configuration.
func Fig3(cfg Config) ([]Fig3Row, error) {
	cfg = cfg.Defaults()
	var rows []Fig3Row
	for _, p := range placement.ConfigsTable2() {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, err
		}
		for _, kind := range []trace.Kind{trace.KindSimulation, trace.KindAnalysis} {
			var execT, miss, mi, ipc []float64
			for _, tr := range traces {
				ens, err := metrics.FromTrace(tr)
				if err != nil {
					return nil, err
				}
				s := ens.ByKind(kind)
				execT = append(execT, s.ExecutionTime.Mean)
				miss = append(miss, s.LLCMissRatio.Mean)
				mi = append(mi, s.MemoryIntensity.Mean)
				ipc = append(ipc, s.IPC.Mean)
			}
			rows = append(rows, Fig3Row{
				Config:          p.Name,
				Kind:            kind.String(),
				ExecutionTime:   stats.Mean(execT),
				LLCMissRatio:    stats.Mean(miss),
				MemoryIntensity: stats.Mean(mi),
				IPC:             stats.Mean(ipc),
			})
		}
	}
	return rows, nil
}

// fig3Table renders Figure 3 data.
func fig3Table(rows []Fig3Row) *report.Table {
	t := report.NewTable("Figure 3 — component-level metrics (Table 1) per configuration",
		"config", "component", "exec time (s)", "LLC miss ratio", "memory intensity", "IPC")
	for _, r := range rows {
		t.AddRow(r.Config, r.Kind, r.ExecutionTime, r.LLCMissRatio, r.MemoryIntensity, r.IPC)
	}
	return t
}

// Fig4Row is one bar of Figure 4: a member's makespan in a configuration.
type Fig4Row struct {
	Config   string
	Member   int
	Makespan float64
}

// Fig4 reproduces Figure 4: member makespans over the Table 2
// configurations, averaged over trials.
func Fig4(cfg Config) ([]Fig4Row, error) {
	cfg = cfg.Defaults()
	var rows []Fig4Row
	for _, p := range placement.ConfigsTable2() {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, err
		}
		for i := range p.Members {
			var ms []float64
			for _, tr := range traces {
				ms = append(ms, tr.Members[i].Makespan())
			}
			rows = append(rows, Fig4Row{Config: p.Name, Member: i + 1, Makespan: stats.Mean(ms)})
		}
	}
	return rows, nil
}

// fig4Table renders Figure 4 data.
func fig4Table(rows []Fig4Row) *report.Table {
	t := report.NewTable("Figure 4 — ensemble member makespan", "config", "member", "makespan (s)")
	for _, r := range rows {
		t.AddRow(r.Config, r.Member, r.Makespan)
	}
	return t
}

// Fig5Row is one bar of Figure 5: a configuration's ensemble makespan.
type Fig5Row struct {
	Config   string
	Makespan float64
}

// Fig5 reproduces Figure 5: the workflow-ensemble makespan per Table 2
// configuration.
func Fig5(cfg Config) ([]Fig5Row, error) {
	cfg = cfg.Defaults()
	var rows []Fig5Row
	for _, p := range placement.ConfigsTable2() {
		traces, err := runConfig(cfg, p)
		if err != nil {
			return nil, err
		}
		var ms []float64
		for _, tr := range traces {
			ms = append(ms, tr.Makespan())
		}
		rows = append(rows, Fig5Row{Config: p.Name, Makespan: stats.Mean(ms)})
	}
	return rows, nil
}

// fig5Table renders Figure 5 data.
func fig5Table(rows []Fig5Row) *report.Table {
	t := report.NewTable("Figure 5 — workflow ensemble makespan", "config", "makespan (s)")
	for _, r := range rows {
		t.AddRow(r.Config, r.Makespan)
	}
	return t
}

// Fig6 reproduces the paper's Figure 6 as an executed timeline: one member
// whose simulation is coupled with two analyses, one provisioned so its
// coupling is Idle Simulation (too few cores) and one so it is Idle
// Analyzer (ample cores). It returns the rendered timeline of the first
// few steady steps.
func Fig6(cfg Config) (string, error) {
	_, out, err := fig6(cfg)
	return out, err
}

// fig6 returns Figure 6's member trace and its rendering.
func fig6(cfg Config) (*trace.MemberTrace, string, error) {
	cfg = cfg.Defaults()
	cfg.Nodes = max(cfg.Nodes, 3)
	p := placement.Placement{
		Name: "fig6",
		Members: []placement.Member{{
			Simulation: placement.Component{Nodes: []int{0}, Cores: 16},
			Analyses: []placement.Component{
				{Nodes: []int{1}, Cores: 4},  // slower than the simulation: Idle Simulation
				{Nodes: []int{2}, Cores: 16}, // faster: Idle Analyzer
			},
		}},
	}
	spec := cfg.spec()
	es := runtime.EnsembleSpec{
		Name:  p.Name,
		Steps: 4,
		Members: []runtime.MemberSpec{{
			Sim: kernels.MDProfile(kernels.ReferenceStride),
			Analyses: []cluster.Profile{
				kernels.AnalysisProfile(),
				kernels.AnalysisProfile(),
			},
		}},
	}
	tr, err := runtime.RunSimulated(spec, p, es, runtime.SimOptions{Tier: cfg.Tier})
	if err != nil {
		return nil, "", err
	}
	m := tr.Members[0]
	g := report.NewGantt("Figure 6 — fine-grained stages of one in situ member (S/W sim, R/A analyses, idle blank)", 100)
	glyphs := map[trace.Stage]rune{
		trace.StageS: 'S', trace.StageW: 'W',
		trace.StageR: 'R', trace.StageA: 'A',
	}
	addComponent := func(label string, ct *trace.ComponentTrace) {
		row := g.AddRow(label)
		for _, step := range ct.Steps {
			for _, st := range step.Stages {
				if glyph, ok := glyphs[st.Stage]; ok {
					g.AddSpan(row, st.Start, st.End(), glyph)
				}
			}
		}
	}
	addComponent("simulation", m.Simulation)
	addComponent("analysis 1 (Idle Simulation)", m.Analyses[0])
	addComponent("analysis 2 (Idle Analyzer)", m.Analyses[1])
	// Annotate the observed coupling scenarios.
	ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
	if err != nil {
		return nil, "", err
	}
	sc0, _ := ss.CouplingScenario(0)
	sc1, _ := ss.CouplingScenario(1)
	return m, g.String() + fmt.Sprintf("coupling 1: %v, coupling 2: %v, sigma=%s\n",
		sc0, sc1, report.FormatFloat(ss.Sigma())), nil
}

// Fig7 reproduces Figure 7: the analysis core sweep of Section 3.4.
func Fig7(cfg Config) ([]heuristic.SweepPoint, error) {
	cfg = cfg.Defaults()
	spec := cfg.spec()
	spec.Nodes = max(spec.Nodes, 2)
	return heuristic.CoreSweep(spec,
		kernels.MDProfile(kernels.ReferenceStride), kernels.AnalysisProfile(),
		heuristic.PaperCoreCounts(),
		heuristic.SweepOptions{
			Steps: min(cfg.Steps, 12),
			Sim:   runtime.SimOptions{Tier: cfg.Tier, Jitter: cfg.jitter(), Seed: cfg.BaseSeed},
		})
}

// fig7Table renders Figure 7 data.
func fig7Table(points []heuristic.SweepPoint) *report.Table {
	t := report.NewTable("Figure 7 — in situ step vs analysis cores (fixed 16-core simulation)",
		"analysis cores", "S*+W* (s)", "R*+A* (s)", "sigma (s)", "E", "Eq.4")
	for _, p := range points {
		t.AddRow(p.Cores, p.SimBusy, p.AnaBusy, p.Sigma, p.Efficiency, p.SatisfiesEq4)
	}
	return t
}
