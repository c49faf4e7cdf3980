// Package placement represents workflow-ensemble component placements: the
// mapping of each member's simulation and analyses to node indexes within
// the allocation (Tables 2 and 4 of the paper). It provides the set
// arithmetic behind the paper's notation — s_i, a_i^j, c_i, d_i, M
// (Table 3) — plus validation against a hardware spec, canonicalization,
// and exhaustive enumeration for placement search.
package placement

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"ensemblekit/internal/cluster"
)

// Component is the placement of one ensemble component: the set of node
// indexes it occupies and its core count. In the paper's experiments every
// component fits on a single node, but the indicator definitions allow
// sets, so sets are supported throughout.
type Component struct {
	// Nodes is the set of node indexes (s_i for a simulation, a_i^j for an
	// analysis). Order and duplicates are ignored.
	Nodes []int `json:"nodes"`
	// Cores is the total number of cores used (cs_i or ca_i^j).
	Cores int `json:"cores"`
}

// NodeSet returns the deduplicated, sorted node set.
func (c Component) NodeSet() []int {
	if len(c.Nodes) == 0 {
		return nil
	}
	out := slices.Clone(c.Nodes)
	slices.Sort(out)
	return slices.Compact(out)
}

// Member is the placement of one ensemble member EM_i: one simulation and
// K_i analyses.
type Member struct {
	Simulation Component   `json:"simulation"`
	Analyses   []Component `json:"analyses"`
}

// K returns the number of couplings (analyses) in the member.
func (m Member) K() int { return len(m.Analyses) }

// Cores returns c_i: the total number of cores used by all components of
// the member.
func (m Member) Cores() int {
	c := m.Simulation.Cores
	for _, a := range m.Analyses {
		c += a.Cores
	}
	return c
}

// Nodes returns d_i's underlying set: s_i union of all a_i^j.
func (m Member) Nodes() []int {
	out := append(make([]int, 0, len(m.Simulation.Nodes)+len(m.Analyses)), m.Simulation.Nodes...)
	for _, a := range m.Analyses {
		out = append(out, a.Nodes...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NodeCount returns d_i = |s_i ∪ ⋃_j a_i^j|.
func (m Member) NodeCount() int { return len(m.Nodes()) }

// CouplingUnionSize returns |s_i ∪ a_i^j| for analysis j — the denominator
// of the paper's placement indicator (Equation 6).
func (m Member) CouplingUnionSize(j int) (int, error) {
	if j < 0 || j >= len(m.Analyses) {
		return 0, fmt.Errorf("placement: analysis index %d out of range [0,%d)", j, len(m.Analyses))
	}
	seen := make(map[int]bool)
	for _, n := range m.Simulation.NodeSet() {
		seen[n] = true
	}
	for _, n := range m.Analyses[j].NodeSet() {
		seen[n] = true
	}
	return len(seen), nil
}

// Placement is a full workflow-ensemble configuration: where every
// component of every member runs.
type Placement struct {
	// Name labels the configuration (e.g. "C1.5").
	Name    string   `json:"name"`
	Members []Member `json:"members"`
}

// N returns the number of ensemble members.
func (p Placement) N() int { return len(p.Members) }

// Without returns p minus the members at the given indexes — the
// survivors of a run that dropped them.
func (p Placement) Without(dropped []int) Placement {
	if len(dropped) == 0 {
		return p
	}
	out := Placement{Name: p.Name}
	for i, m := range p.Members {
		if !slices.Contains(dropped, i) {
			out.Members = append(out.Members, m)
		}
	}
	return out
}

// UsedNodes returns the set of node indexes used by the whole ensemble.
func (p Placement) UsedNodes() []int {
	out := []int{}
	for _, m := range p.Members {
		out = append(out, m.Simulation.Nodes...)
		for _, a := range m.Analyses {
			out = append(out, a.Nodes...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// M returns the paper's M: the number of nodes used by the workflow
// ensemble.
func (p Placement) M() int { return len(p.UsedNodes()) }

// Validate checks the placement against a hardware spec: node indexes in
// range, positive core counts, single-node components not split beyond
// their node capacity, and per-node aggregate core demand within capacity.
func (p Placement) Validate(spec cluster.Spec) error {
	if len(p.Members) == 0 {
		return errors.New("placement: no members")
	}
	coresPerNode := make(map[int]int)
	// analysis < 0 means "the member's simulation"; the error label is only
	// built on the failure path.
	checkComponent := func(member, analysis int, c Component) error {
		label := func() string {
			if analysis < 0 {
				return fmt.Sprintf("member %d simulation", member)
			}
			return fmt.Sprintf("member %d analysis %d", member, analysis)
		}
		ns := c.NodeSet()
		if len(ns) == 0 {
			return fmt.Errorf("placement: %s has no nodes", label())
		}
		if c.Cores <= 0 {
			return fmt.Errorf("placement: %s has %d cores, want positive", label(), c.Cores)
		}
		for _, n := range ns {
			if n < 0 || n >= spec.Nodes {
				return fmt.Errorf("placement: %s uses node %d outside [0,%d)", label(), n, spec.Nodes)
			}
		}
		// Cores are spread evenly across the component's nodes.
		per := c.Cores / len(ns)
		rem := c.Cores % len(ns)
		for i, n := range ns {
			add := per
			if i < rem {
				add++
			}
			coresPerNode[n] += add
		}
		return nil
	}
	for i, m := range p.Members {
		if err := checkComponent(i, -1, m.Simulation); err != nil {
			return err
		}
		if len(m.Analyses) == 0 {
			return fmt.Errorf("placement: member %d has no analyses (a coupling requires at least one)", i)
		}
		for j, a := range m.Analyses {
			if err := checkComponent(i, j, a); err != nil {
				return err
			}
		}
	}
	for n, c := range coresPerNode {
		if c > spec.CoresPerNode {
			return fmt.Errorf("placement %q: node %d oversubscribed: %d cores > capacity %d",
				p.Name, n, c, spec.CoresPerNode)
		}
	}
	return nil
}

// Canonical returns a copy with nodes relabeled in first-use order
// (member by member, simulation before analyses) so that placements that
// differ only by node naming compare equal.
func (p Placement) Canonical() Placement {
	relabel := make(map[int]int)
	next := 0
	mapNode := func(n int) int {
		if v, ok := relabel[n]; ok {
			return v
		}
		relabel[n] = next
		next++
		return relabel[n]
	}
	out := Placement{Name: p.Name, Members: make([]Member, len(p.Members))}
	for i, m := range p.Members {
		nm := Member{Simulation: Component{Cores: m.Simulation.Cores}}
		for _, n := range m.Simulation.NodeSet() {
			nm.Simulation.Nodes = append(nm.Simulation.Nodes, mapNode(n))
		}
		for _, a := range m.Analyses {
			na := Component{Cores: a.Cores}
			for _, n := range a.NodeSet() {
				na.Nodes = append(na.Nodes, mapNode(n))
			}
			nm.Analyses = append(nm.Analyses, na)
		}
		out.Members[i] = nm
	}
	return out
}

// Key returns a canonical string identity for deduplication.
func (p Placement) Key() string {
	c := p.Canonical()
	var b strings.Builder
	for _, m := range c.Members {
		fmt.Fprintf(&b, "s%v@%d", m.Simulation.Nodes, m.Simulation.Cores)
		for _, a := range m.Analyses {
			fmt.Fprintf(&b, "|a%v@%d", a.Nodes, a.Cores)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// String renders the placement in the paper's Table 2/4 style.
func (p Placement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (nodes=%d, members=%d):", p.Name, p.M(), p.N())
	for i, m := range p.Members {
		fmt.Fprintf(&b, " EM%d{sim@%v", i+1, m.Simulation.NodeSet())
		for j, a := range m.Analyses {
			fmt.Fprintf(&b, " ana%d@%v", j+1, a.NodeSet())
		}
		b.WriteString("}")
	}
	return b.String()
}

// WriteJSON serializes the placement.
func (p Placement) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON deserializes a placement produced by WriteJSON.
func ReadJSON(r io.Reader) (Placement, error) {
	var p Placement
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return Placement{}, fmt.Errorf("placement: decoding JSON: %w", err)
	}
	return p, nil
}
