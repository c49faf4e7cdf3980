package placement

import (
	"fmt"
	"reflect"
	"testing"

	"ensemblekit/internal/cluster"
)

// bruteEnumerate is the enumeration Enumerate replaced: every one of
// maxNodes^components assignments, validated, then deduplicated up to node
// relabeling by Key, keeping the canonical form of each class's first
// assignment.
func bruteEnumerate(spec cluster.Spec, shape Shape, maxNodes int) []Placement {
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	total := shape.Members * (1 + len(shape.AnalysisCores))
	assignment := make([]int, total)
	var out []Placement
	seen := make(map[string]bool)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == total {
			p := shapeToPlacement(shape, assignment)
			if p.Validate(spec) != nil || seen[p.Key()] {
				return
			}
			seen[p.Key()] = true
			c := p.Canonical()
			c.Name = fmt.Sprintf("P%d", len(out)+1)
			out = append(out, c)
			return
		}
		for n := 0; n < maxNodes; n++ {
			assignment[pos] = n
			rec(pos + 1)
		}
	}
	rec(0)
	return out
}

// TestEnumerateEqualsBruteForce: generating only canonical assignments
// yields the brute force's candidates, names and order, over the shapes
// the placement and scheduler tests and the placement CLI's CI run use.
func TestEnumerateEqualsBruteForce(t *testing.T) {
	paper := func(members, analyses int) Shape {
		s := Shape{SimCores: SimCores, Members: members}
		for range analyses {
			s.AnalysisCores = append(s.AnalysisCores, AnalysisCores)
		}
		return s
	}
	for _, c := range []struct {
		nodes, maxNodes int
		shape           Shape
	}{
		{2, 2, Shape{SimCores: 16, AnalysisCores: []int{8}, Members: 1}},
		{3, 3, Shape{SimCores: 16, AnalysisCores: []int{8}, Members: 2}},
		{3, 3, paper(2, 1)},
		{4, 4, paper(3, 1)},
		{4, 4, paper(2, 2)},
		{4, 4, paper(2, 3)}, // also cmd/placement -members 2 -analyses 3 -nodes 4
		{3, 3, paper(2, 3)},
		{4, 2, paper(2, 2)}, // fewer nodes searched than the machine has
		{1, 1, paper(1, 1)},
		{2, 0, paper(2, 1)}, // maxNodes 0: the whole machine
	} {
		spec := cluster.Cori(c.nodes)
		got, err := Enumerate(spec, c.shape, c.maxNodes)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteEnumerate(spec, c.shape, c.maxNodes)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v on %d of %d nodes: %d candidates, brute force %d, or they differ",
				c.shape, c.maxNodes, c.nodes, len(got), len(want))
		}
	}
}

// TestAssignmentsCountsSetPartitions: the canonical assignments of n
// components on k nodes number the set partitions into at most k blocks.
func TestAssignmentsCountsSetPartitions(t *testing.T) {
	for _, c := range []struct{ n, k, want int }{
		{1, 1, 1}, {3, 3, 5}, {4, 2, 8}, {8, 4, 2795}, {8, 8, 4140},
	} {
		got := 0
		Assignments(c.n, c.k, func([]int) { got++ })
		if got != c.want {
			t.Errorf("%d components on %d nodes: %d assignments, want %d", c.n, c.k, got, c.want)
		}
	}
}
