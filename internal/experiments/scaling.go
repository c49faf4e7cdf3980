package experiments

import (
	"fmt"

	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/network"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/trace"
	"ensemblekit/internal/workload"
)

// ScalingRow is one point of the ensemble-size scaling study.
type ScalingRow struct {
	Members   int
	Placement string // "co-located" or "spread"
	Nodes     int
	Makespan  float64
	F         float64
}

// coLocatedPlacement puts each member (sim + all analyses) on its own
// node.
func coLocatedPlacement(members, analyses int) placement.Placement {
	p := placement.Placement{Name: fmt.Sprintf("colocated-%d", members)}
	for i := 0; i < members; i++ {
		m := placement.Member{
			Simulation: placement.Component{Nodes: []int{i}, Cores: placement.SimCores},
		}
		for j := 0; j < analyses; j++ {
			m.Analyses = append(m.Analyses, placement.Component{
				Nodes: []int{i}, Cores: placement.AnalysisCores,
			})
		}
		p.Members = append(p.Members, m)
	}
	return p
}

// spreadPlacement gives every component a dedicated node.
func spreadPlacement(members, analyses int) placement.Placement {
	p := placement.Placement{Name: fmt.Sprintf("spread-%d", members)}
	node := 0
	for i := 0; i < members; i++ {
		m := placement.Member{
			Simulation: placement.Component{Nodes: []int{node}, Cores: placement.SimCores},
		}
		node++
		for j := 0; j < analyses; j++ {
			m.Analyses = append(m.Analyses, placement.Component{
				Nodes: []int{node}, Cores: placement.AnalysisCores,
			})
			node++
		}
		p.Members = append(p.Members, m)
	}
	return p
}

// ScalingStudy sweeps the ensemble size beyond the paper's two members:
// for N = 1, 2, 4, 8 members it compares full coupling co-location against
// one-component-per-node spreading, reporting makespans and the objective.
// The paper's conclusion — co-location wins, and the indicator says so —
// must hold at every scale.
func ScalingStudy(cfg Config) ([]ScalingRow, error) {
	cfg = cfg.Defaults()
	const analyses = 1
	var rows []ScalingRow
	for _, n := range []int{1, 2, 4, 8} {
		for _, build := range []func(int, int) placement.Placement{coLocatedPlacement, spreadPlacement} {
			p := build(n, analyses)
			c := cfg
			c.Nodes = p.M()
			traces, err := runConfig(c, p)
			if err != nil {
				return nil, err
			}
			var ms []float64
			for _, tr := range traces {
				ms = append(ms, tr.Makespan())
			}
			effs, err := memberEfficiencies(traces)
			if err != nil {
				return nil, err
			}
			f, err := indicators.Objective(p, effs, indicators.StageUAP)
			if err != nil {
				return nil, err
			}
			kind := "co-located"
			if p.M() > n {
				kind = "spread"
			}
			rows = append(rows, ScalingRow{
				Members: n, Placement: kind, Nodes: p.M(),
				Makespan: stats.Mean(ms), F: f,
			})
		}
	}
	return rows, nil
}

// scalingTable renders the scaling study.
func scalingTable(rows []ScalingRow) *report.Table {
	t := report.NewTable("Extension — ensemble-size scaling (co-location vs spreading)",
		"members", "placement", "nodes", "makespan (s)", "F(P^{U,A,P})")
	for _, r := range rows {
		t.AddRow(r.Members, r.Placement, r.Nodes, r.Makespan, r.F)
	}
	return t
}

// HeterogeneousRow is one placement of the heterogeneous-ensemble study.
type HeterogeneousRow struct {
	Placement string
	Makespan  float64
	F         float64
}

// HeterogeneousStudy exercises the case the paper's framework supports but
// its experiments never run (Section 3.4's second assumption): members
// with different strides coupled to analyses of different costs (the
// generalized-ensemble preset). It compares full co-location against
// spreading and reports the objective — the indicator must still pick
// co-location without the homogeneity assumption.
func HeterogeneousStudy(cfg Config) ([]HeterogeneousRow, error) {
	cfg = cfg.Defaults()
	const members = 3
	es := workload.GeneralizedEnsemble(members, cfg.Steps)
	configs := []placement.Placement{
		coLocatedPlacement(members, 2),
		spreadPlacement(members, 2),
	}
	var rows []HeterogeneousRow
	for _, p := range configs {
		spec := cfg.spec()
		spec.Nodes = max(spec.Nodes, p.M())
		var ms []float64
		var traces []*trace.EnsembleTrace
		for t := 0; t < cfg.Trials; t++ {
			tr, err := runtime.RunSimulated(spec, p, es, cfg.trialOptions(t))
			if err != nil {
				return nil, err
			}
			ms = append(ms, tr.Makespan())
			traces = append(traces, tr)
		}
		effs, err := memberEfficiencies(traces)
		if err != nil {
			return nil, err
		}
		f, err := indicators.Objective(p, effs, indicators.StageUAP)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HeterogeneousRow{Placement: p.Name, Makespan: stats.Mean(ms), F: f})
	}
	return rows, nil
}

// heterogeneousTable renders the heterogeneous-ensemble study.
func heterogeneousTable(rows []HeterogeneousRow) *report.Table {
	t := report.NewTable("Extension — heterogeneous ensembles (generalized-ensemble workload)",
		"placement", "makespan (s)", "F(P^{U,A,P})")
	for _, r := range rows {
		t.AddRow(r.Placement, r.Makespan, r.F)
	}
	return t
}

// TopologyRow is one point of the dragonfly topology study.
type TopologyRow struct {
	Scenario string
	Makespan float64
	ReadTime float64 // steady-state R of member 1's analysis
}

// TopologyStudy quantifies the dragonfly interconnect model: the spread
// C_f member with producer and consumer in the same group, in different
// groups over a healthy global link, and in different groups over a
// starved global link. Remote staging cost — and with it the in situ
// step — degrades as the path crosses slower global links, which is why
// placement within the allocation matters beyond node counts.
func TopologyStudy(cfg Config) ([]TopologyRow, error) {
	cfg = cfg.Defaults()
	scenarios := []struct {
		name string
		topo *network.Dragonfly
	}{
		{"flat fabric", nil},
		{"same group", &network.Dragonfly{GroupSize: 2, GlobalBandwidth: 1e9, GlobalLatency: 5e-3}},
		{"cross group", &network.Dragonfly{GroupSize: 1, GlobalBandwidth: 1e9, GlobalLatency: 5e-3}},
		{"cross group, starved link", &network.Dragonfly{GroupSize: 1, GlobalBandwidth: 0.25e9, GlobalLatency: 5e-3}},
	}
	p := placement.Cf()
	es := runtime.SpecForPlacement(p, cfg.Steps)
	spec := cfg.spec()
	var rows []TopologyRow
	for _, sc := range scenarios {
		var ms, reads []float64
		for t := 0; t < cfg.Trials; t++ {
			opts := cfg.trialOptions(t)
			opts.Topology = sc.topo
			tr, err := runtime.RunSimulated(spec, p, es, opts)
			if err != nil {
				return nil, err
			}
			ms = append(ms, tr.Makespan())
			ss, err := core.FromMemberTrace(tr.Members[0], core.ExtractOptions{})
			if err != nil {
				return nil, err
			}
			reads = append(reads, ss.Couplings[0].R)
		}
		rows = append(rows, TopologyRow{
			Scenario: sc.name,
			Makespan: stats.Mean(ms),
			ReadTime: stats.Mean(reads),
		})
	}
	return rows, nil
}

// topologyTable renders the topology study.
func topologyTable(rows []TopologyRow) *report.Table {
	t := report.NewTable("Extension — dragonfly topology (C_f with varying producer-consumer paths)",
		"scenario", "makespan (s)", "steady R (s)")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Makespan, r.ReadTime)
	}
	return t
}

// SocketRow is one point of the socket-fidelity study.
type SocketRow struct {
	Config       string
	FlatMakespan float64
	SocketAware  float64
	Delta        float64 // (flat - socket) / flat
}

// SocketStudy compares the node-level interference model (the calibration
// target) against the opt-in dual-socket model on the Table 2
// configurations. Socket awareness reduces interference wherever the
// first-fit assignment separates co-located components onto different
// sockets — which is the hardware effect the node-level calibration
// averages over.
func SocketStudy(cfg Config) ([]SocketRow, error) {
	cfg = cfg.Defaults()
	var rows []SocketRow
	for _, p := range placement.ConfigsTable2() {
		es := runtime.SpecForPlacement(p, cfg.Steps)
		run := func(sockets int) (float64, error) {
			spec := cfg.spec()
			spec.SocketsPerNode = sockets
			var ms []float64
			for t := 0; t < cfg.Trials; t++ {
				tr, err := runtime.RunSimulated(spec, p, es, cfg.trialOptions(t))
				if err != nil {
					return 0, err
				}
				ms = append(ms, tr.Makespan())
			}
			return stats.Mean(ms), nil
		}
		flat, err := run(0)
		if err != nil {
			return nil, err
		}
		sock, err := run(2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SocketRow{
			Config:       p.Name,
			FlatMakespan: flat,
			SocketAware:  sock,
			Delta:        (flat - sock) / flat,
		})
	}
	return rows, nil
}

// socketTable renders the socket-fidelity study.
func socketTable(rows []SocketRow) *report.Table {
	t := report.NewTable("Extension — node-level vs dual-socket interference model",
		"config", "node-level makespan (s)", "socket-aware (s)", "reduction")
	for _, r := range rows {
		t.AddRow(r.Config, r.FlatMakespan, r.SocketAware, r.Delta)
	}
	return t
}

// InTransitRow is one mode of the in situ vs in transit comparison.
type InTransitRow struct {
	Mode     string
	Makespan float64
	SimStage float64 // steady-state S of member 1 (producer perturbation)
	AnaStage float64 // steady-state A of member 1's analysis (contention)
	F        float64
}

// InTransitStudy contrasts the two analytics modes of the paper's
// citation [26] (Taufer et al.): in situ (analyses co-located with their
// simulations, the C1.5 pattern), in transit (analyses packed on a
// dedicated staging node, the C1.1 pattern), and in transit with a staging
// buffer (the asynchronous variant). In transit shields the analyses from
// the simulation's cache but pays remote staging, producer-side serving
// perturbation, and analysis-analysis contention on the staging node.
func InTransitStudy(cfg Config) ([]InTransitRow, error) {
	cfg = cfg.Defaults()
	modes := []struct {
		name  string
		p     placement.Placement
		slots int
	}{
		{"in situ (C1.5)", placement.C15(), 1},
		{"in transit (C1.1)", placement.C11(), 1},
		{"in transit, buffered", placement.C11(), 2},
	}
	var rows []InTransitRow
	for _, mode := range modes {
		es := runtime.SpecForPlacement(mode.p, cfg.Steps)
		spec := cfg.spec()
		var ms, sStage, aStage []float64
		var traces []*trace.EnsembleTrace
		for t := 0; t < cfg.Trials; t++ {
			opts := cfg.trialOptions(t)
			opts.StagingSlots = mode.slots
			tr, err := runtime.RunSimulated(spec, mode.p, es, opts)
			if err != nil {
				return nil, err
			}
			ss, err := core.FromMemberTrace(tr.Members[0], core.ExtractOptions{})
			if err != nil {
				return nil, err
			}
			ms = append(ms, tr.Makespan())
			sStage = append(sStage, ss.S)
			aStage = append(aStage, ss.Couplings[0].A)
			traces = append(traces, tr)
		}
		effs, err := memberEfficiencies(traces)
		if err != nil {
			return nil, err
		}
		f, err := indicators.Objective(mode.p, effs, indicators.StageUAP)
		if err != nil {
			return nil, err
		}
		rows = append(rows, InTransitRow{
			Mode:     mode.name,
			Makespan: stats.Mean(ms),
			SimStage: stats.Mean(sStage),
			AnaStage: stats.Mean(aStage),
			F:        f,
		})
	}
	return rows, nil
}

// inTransitTable renders the in situ vs in transit study.
func inTransitTable(rows []InTransitRow) *report.Table {
	t := report.NewTable("Extension — in situ vs in transit analytics (after the paper's ref. [26])",
		"mode", "makespan (s)", "S* (s)", "A* (s)", "F(P^{U,A,P})")
	for _, r := range rows {
		t.AddRow(r.Mode, r.Makespan, r.SimStage, r.AnaStage, r.F)
	}
	return t
}
