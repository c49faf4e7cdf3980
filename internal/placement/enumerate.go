package placement

import (
	"fmt"

	"ensemblekit/internal/cluster"
)

// Shape describes the structure of an ensemble whose placements are to be
// enumerated: per member, how many cores the simulation and each analysis
// use.
type Shape struct {
	// SimCores per member.
	SimCores int
	// AnalysisCores per analysis; the slice length is K.
	AnalysisCores []int
	// Members is the number of ensemble members (all with the same shape,
	// as in the paper's experiments).
	Members int
}

// Validate checks the shape.
func (s Shape) Validate() error {
	if s.Members <= 0 {
		return fmt.Errorf("placement: shape needs positive members, got %d", s.Members)
	}
	if s.SimCores <= 0 {
		return fmt.Errorf("placement: shape needs positive sim cores, got %d", s.SimCores)
	}
	if len(s.AnalysisCores) == 0 {
		return fmt.Errorf("placement: shape needs at least one analysis")
	}
	for j, c := range s.AnalysisCores {
		if c <= 0 {
			return fmt.Errorf("placement: analysis %d has non-positive cores %d", j, c)
		}
	}
	return nil
}

// Enumerate generates every valid single-node-per-component placement of
// the shape onto at most maxNodes nodes of the spec, deduplicated up to
// node relabeling. The result is deterministic: placements come in
// lexicographic order of their node assignments, named P1, P2, ….
//
// Only canonical assignments are generated (see Assignments), so the cost
// is the number of set partitions of the components into at most maxNodes
// blocks rather than maxNodes^components: 2 795 assignments for 8
// components on 4 nodes, against 65 536.
func Enumerate(spec cluster.Spec, shape Shape, maxNodes int) ([]Placement, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	var out []Placement
	Assignments(shape.Members*(1+len(shape.AnalysisCores)), maxNodes, func(assignment []int) {
		p := shapeToPlacement(shape, assignment)
		if p.Validate(spec) != nil {
			return
		}
		p.Name = fmt.Sprintf("P%d", len(out)+1)
		out = append(out, p)
	})
	return out, nil
}

// Assignments visits, in lexicographic order, every assignment of n
// components to at most maxNodes nodes that is its own canonical form
// (Placement.Canonical): each component takes a node an earlier one uses
// or the lowest node none does (a restricted-growth string). That is one
// assignment per class of assignments equal up to node relabeling — the
// lexicographically smallest of the class, which is the one a brute-force
// pass over all maxNodes^n assignments deduplicated by Key keeps first.
// Validity on a machine of at least maxNodes nodes is the same for every
// assignment of a class, so filtering the visited ones loses nothing.
// visit receives one reused slice.
func Assignments(n, maxNodes int, visit func(assignment []int)) {
	assignment := make([]int, n)
	var rec func(pos, used int)
	rec = func(pos, used int) {
		if pos == n {
			visit(assignment)
			return
		}
		for node := 0; node <= used && node < maxNodes; node++ {
			assignment[pos] = node
			rec(pos+1, max(used, node+1))
		}
	}
	rec(0, 0)
}

// shapeToPlacement materializes an assignment vector into a placement.
func shapeToPlacement(shape Shape, assignment []int) Placement {
	componentsPerMember := 1 + len(shape.AnalysisCores)
	p := Placement{Members: make([]Member, shape.Members)}
	for i := 0; i < shape.Members; i++ {
		base := i * componentsPerMember
		m := Member{
			Simulation: Component{Nodes: []int{assignment[base]}, Cores: shape.SimCores},
		}
		for j, c := range shape.AnalysisCores {
			m.Analyses = append(m.Analyses, Component{
				Nodes: []int{assignment[base+1+j]},
				Cores: c,
			})
		}
		p.Members[i] = m
	}
	return p
}
