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
func bruteEnumerate(spec cluster.Spec, shape [][]int, maxNodes int) []Placement {
	if maxNodes <= 0 || maxNodes > spec.Nodes {
		maxNodes = spec.Nodes
	}
	total := 0
	for _, cores := range shape {
		total += len(cores)
	}
	assignment := make([]int, total)
	var out []Placement
	seen := make(map[string]bool)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == total {
			p := FromAssignment(shape, assignment)
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

// collect gathers an enumeration into a slice.
func collect(t *testing.T, spec cluster.Spec, shape [][]int, maxNodes int) []Placement {
	t.Helper()
	var out []Placement
	if err := Enumerate(spec, shape, maxNodes, func(p Placement) { out = append(out, p) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// paperShape is members × (one 16-core simulation + analyses 8-core
// analyses), the paper's core counts.
func paperShape(members, analyses int) [][]int {
	shape := make([][]int, members)
	for i := range shape {
		shape[i] = []int{SimCores}
		for range analyses {
			shape[i] = append(shape[i], AnalysisCores)
		}
	}
	return shape
}

// TestEnumerateEqualsBruteForce: walking only canonical assignments that
// fit yields the brute force's candidates, names and order, over the
// shapes the placement and scheduler tests and the placement CLI's CI run
// use, members with different analysis counts, a node budget below the
// machine, and a machine whose nodes cannot hold a simulation.
func TestEnumerateEqualsBruteForce(t *testing.T) {
	small := cluster.Cori(3)
	small.CoresPerNode = SimCores - 1
	for _, c := range []struct {
		spec     cluster.Spec
		maxNodes int
		shape    [][]int
		want     int // candidates; -1: any nonzero count
	}{
		{cluster.Cori(2), 2, [][]int{{16, 8}}, 2},
		{cluster.Cori(3), 3, [][]int{{16, 8}, {16, 8}}, 11},
		{cluster.Cori(4), 4, paperShape(3, 1), 100},
		{cluster.Cori(4), 4, paperShape(2, 2), 132},
		{cluster.Cori(4), 4, paperShape(2, 3), 1460}, // also cmd/placement -members 2 -analyses 3 -nodes 4
		{cluster.Cori(3), 3, paperShape(2, 3), -1},
		{cluster.Cori(4), 2, paperShape(2, 2), -1}, // fewer nodes searched than the machine has
		{cluster.Cori(5), 3, paperShape(2, 1), -1},
		{cluster.Cori(1), 1, paperShape(1, 1), 1},
		{cluster.Cori(2), 0, paperShape(2, 1), -1}, // maxNodes 0: the whole machine
		{cluster.Cori(3), 3, [][]int{{16, 8}, {16, 8, 8}}, -1},
		{cluster.Cori(4), 4, [][]int{{16, 8}, {16, 8, 8}, {16, 8, 8}}, -1},
		{small, 3, paperShape(2, 1), 0}, // no node holds a simulation
	} {
		got := collect(t, c.spec, c.shape, c.maxNodes)
		want := bruteEnumerate(c.spec, c.shape, c.maxNodes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v on %d of %d nodes: %d candidates, brute force %d, or they differ",
				c.shape, c.maxNodes, c.spec.Nodes, len(got), len(want))
		}
		if c.want >= 0 && len(got) != c.want || c.want < 0 && len(got) == 0 {
			t.Errorf("%v on %d of %d nodes: %d candidates, want %d", c.shape, c.maxNodes, c.spec.Nodes, len(got), c.want)
		}
	}
}

// TestEnumerateCountsAtScale pins the candidate counts of the two shapes
// pruning pays off on, too large for the brute force.
func TestEnumerateCountsAtScale(t *testing.T) {
	for _, c := range []struct{ members, analyses, nodes, want int }{
		{4, 2, 4, 5145},
		{3, 3, 4, 23625},
	} {
		n := 0
		if err := Enumerate(cluster.Cori(c.nodes), paperShape(c.members, c.analyses), c.nodes, func(Placement) { n++ }); err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Errorf("%dm×%da×%dn: %d candidates, want %d", c.members, c.analyses, c.nodes, n, c.want)
		}
	}
}

// TestAssignmentsCountsSetPartitions: the canonical assignments of n
// components on k nodes that never fill up number the set partitions into
// at most k blocks.
func TestAssignmentsCountsSetPartitions(t *testing.T) {
	for _, c := range []struct{ n, k, want int }{
		{1, 1, 1}, {3, 3, 5}, {4, 2, 8}, {8, 4, 2795}, {8, 8, 4140},
	} {
		cores := make([]int, c.n)
		for i := range cores {
			cores[i] = 1
		}
		got := 0
		assignments(cores, c.k, c.n, func([]int) { got++ })
		if got != c.want {
			t.Errorf("%d components on %d nodes: %d assignments, want %d", c.n, c.k, got, c.want)
		}
	}
}
