package placement

import (
	"errors"
	"fmt"

	"ensemblekit/internal/cluster"
)

// Enumerate visits every valid single-node-per-component placement of an
// ensemble onto at most maxNodes nodes of the spec (the whole machine when
// maxNodes is 0 or beyond it), deduplicated up to node relabeling. shape
// gives, per member, the simulation's cores followed by each analysis's
// cores, so members may differ in their analysis counts. Placements come in
// lexicographic order of their node assignments, named P1, P2, …; each is
// freshly built, so visit may keep it.
//
// Only canonical assignments are walked (each component takes a node an
// earlier one uses or the lowest node none does: a restricted-growth
// string), one per class of assignments equal up to node relabeling — the
// one a brute-force pass over all maxNodes^components assignments
// deduplicated by Key keeps first. The walk tracks every node's used cores
// and never extends a prefix that overloads a node, so it visits feasible
// prefixes only. Each placement still passes Placement.Validate before it
// is visited.
func Enumerate(spec cluster.Spec, shape [][]int, maxNodes int, visit func(Placement)) error {
	if len(shape) == 0 {
		return errors.New("placement: shape needs at least one member")
	}
	var cores []int
	for i, member := range shape {
		if len(member) < 2 {
			return fmt.Errorf("placement: member %d needs a simulation and at least one analysis", i)
		}
		for j, c := range member {
			if c <= 0 {
				return fmt.Errorf("placement: member %d component %d has non-positive cores %d", i, j, c)
			}
		}
		cores = append(cores, member...)
	}
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	n := 0
	assignments(cores, maxNodes, spec.CoresPerNode, func(assignment []int) {
		p := FromAssignment(shape, assignment)
		if p.Validate(spec) != nil {
			return
		}
		n++
		p.Name = fmt.Sprintf("P%d", n)
		visit(p)
	})
	return nil
}

// assignments visits, in lexicographic order, every canonical assignment of
// components with the given cores to at most maxNodes nodes of capacity
// cores each. A component takes a node an earlier one uses or the lowest
// node none does, and only if that node has the cores left. visit receives
// one reused slice.
func assignments(cores []int, maxNodes, capacity int, visit func(assignment []int)) {
	assignment := make([]int, len(cores))
	load := make([]int, maxNodes)
	var rec func(pos, used int)
	rec = func(pos, used int) {
		if pos == len(cores) {
			visit(assignment)
			return
		}
		c := cores[pos]
		for node := 0; node <= used && node < maxNodes; node++ {
			if load[node]+c > capacity {
				continue
			}
			assignment[pos] = node
			load[node] += c
			rec(pos+1, max(used, node+1))
			load[node] -= c
		}
	}
	rec(0, 0)
}

// FromAssignment builds the placement that puts component k of the
// flattened shape (each member's simulation, then its analyses) on node
// assignment[k].
func FromAssignment(shape [][]int, assignment []int) Placement {
	p := Placement{Members: make([]Member, len(shape))}
	pos := 0
	for i, cores := range shape {
		m := Member{
			Simulation: Component{Nodes: []int{assignment[pos]}, Cores: cores[0]},
			Analyses:   make([]Component, len(cores)-1),
		}
		pos++
		for j, c := range cores[1:] {
			m.Analyses[j] = Component{Nodes: []int{assignment[pos]}, Cores: c}
			pos++
		}
		p.Members[i] = m
	}
	return p
}
