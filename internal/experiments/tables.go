package experiments

import (
	"fmt"
	"strings"

	"ensemblekit/internal/metrics"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
)

// Table1 renders the paper's Table 1 — the metric definitions — together
// with sample values measured on one co-located run, demonstrating every
// metric end to end.
func Table1(cfg Config) (string, error) {
	_, out, err := table1(cfg)
	return out, err
}

// table1 returns Table 1's sample metrics and their rendering.
func table1(cfg Config) (metrics.Ensemble, string, error) {
	cfg = cfg.Defaults()
	traces, err := runConfig(cfg, placement.Cc())
	if err != nil {
		return metrics.Ensemble{}, "", err
	}
	ens, err := metrics.FromTrace(traces[0])
	if err != nil {
		return metrics.Ensemble{}, "", err
	}
	var b strings.Builder
	b.WriteString("## Table 1 — metrics at three levels of granularity (sampled on C_c)\n")

	comp := report.NewTable("Ensemble component",
		"component", "execution time (s)", "LLC miss ratio", "memory intensity", "IPC")
	for _, c := range ens.Components {
		comp.AddRow(c.Name, c.ExecutionTime, c.LLCMissRatio, c.MemoryIntensity, c.IPC)
	}
	b.WriteString(comp.String())

	mem := report.NewTable("Ensemble member", "member", "makespan (s)")
	for _, m := range ens.Members {
		mem.AddRow(fmt.Sprintf("EM%d", m.Index+1), m.Makespan)
	}
	b.WriteString(mem.String())

	wf := report.NewTable("Workflow ensemble", "metric", "value")
	wf.AddRow("ensemble makespan (s)", ens.Makespan)
	b.WriteString(wf.String())
	return ens, b.String(), nil
}

// configTable renders a set of configurations in the paper's Table 2/4
// layout.
func configTable(title string, configs []placement.Placement) *report.Table {
	maxK := 0
	for _, p := range configs {
		for _, m := range p.Members {
			if m.K() > maxK {
				maxK = m.K()
			}
		}
	}
	cols := []string{"configuration", "nodes", "members"}
	maxMembers := 0
	for _, p := range configs {
		if p.N() > maxMembers {
			maxMembers = p.N()
		}
	}
	for i := 1; i <= maxMembers; i++ {
		cols = append(cols, fmt.Sprintf("sim %d", i))
		for j := 1; j <= maxK; j++ {
			cols = append(cols, fmt.Sprintf("ana %d.%d", i, j))
		}
	}
	t := report.NewTable(title, cols...)
	nodeName := func(c placement.Component) string {
		ns := c.NodeSet()
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = fmt.Sprintf("n%d", n)
		}
		return strings.Join(parts, "+")
	}
	for _, p := range configs {
		cells := []any{p.Name, p.M(), p.N()}
		for i := 0; i < maxMembers; i++ {
			if i < len(p.Members) {
				m := p.Members[i]
				cells = append(cells, nodeName(m.Simulation))
				for j := 0; j < maxK; j++ {
					if j < len(m.Analyses) {
						cells = append(cells, nodeName(m.Analyses[j]))
					} else {
						cells = append(cells, "-")
					}
				}
			} else {
				cells = append(cells, "-")
				for j := 0; j < maxK; j++ {
					cells = append(cells, "-")
				}
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Table2 renders the paper's Table 2 configurations.
func Table2() *report.Table {
	return configTable("Table 2 — experimental scenario configuration settings", placement.ConfigsTable2())
}

// Table4 renders the paper's Table 4 configurations.
func Table4() *report.Table {
	return configTable("Table 4 — two members, two analyses per simulation", placement.ConfigsTable4())
}
