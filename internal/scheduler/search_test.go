package scheduler

import (
	"fmt"
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// enumerate collects placement.Enumerate's candidates for the ensemble.
func enumerate(t *testing.T, spec cluster.Spec, es runtime.EnsembleSpec, maxNodes int) []placement.Placement {
	t.Helper()
	shape, err := ShapeOf(es)
	if err != nil {
		t.Fatal(err)
	}
	var out []placement.Placement
	if err := placement.Enumerate(spec, shape, maxNodes, func(p placement.Placement) { out = append(out, p) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnumerationIsPlacementEnumerate: Exhaustive scores exactly
// placement.Enumerate's candidates (TestEnumerateEqualsBruteForce pins
// those to the brute force), in order and under their names, once each,
// including members with different analysis counts and a node budget
// below the machine.
func TestEnumerationIsPlacementEnumerate(t *testing.T) {
	mixed := runtime.PaperEnsemble("enum", 3, 2, 4)
	mixed.Members[1].Analyses = mixed.Members[1].Analyses[:1]
	for _, c := range []struct {
		spec     cluster.Spec
		es       runtime.EnsembleSpec
		maxNodes int
	}{
		{cluster.Cori(3), runtime.PaperEnsemble("enum", 2, 1, 4), 3},
		{cluster.Cori(4), runtime.PaperEnsemble("enum", 3, 1, 4), 4},
		{cluster.Cori(4), runtime.PaperEnsemble("enum", 2, 2, 4), 4},
		{cluster.Cori(4), runtime.PaperEnsemble("enum", 2, 3, 4), 4},
		{cluster.Cori(4), runtime.PaperEnsemble("enum", 2, 2, 4), 2},
		{cluster.Cori(4), mixed, 4},
	} {
		want := enumerate(t, c.spec, c.es, c.maxNodes)
		var got []placement.Placement
		collect := func(p placement.Placement) (float64, error) {
			got = append(got, p)
			return 0, nil
		}
		res, err := Exhaustive(c.spec, c.es, c.maxNodes, collect)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d members on %d of %d nodes", len(c.es.Members), c.maxNodes, c.spec.Nodes)
		if len(want) == 0 || len(got) != len(want) || res.Evaluated != len(want) {
			t.Fatalf("%s: scored %d (Evaluated %d), placement.Enumerate has %d", name, len(got), res.Evaluated, len(want))
		}
		for i := range want {
			if got[i].Key() != want[i].Key() || got[i].Name != want[i].Name {
				t.Fatalf("%s: candidate %d is %s %s, want %s %s", name, i, got[i].Name, got[i].Key(), want[i].Name, want[i].Key())
			}
		}
	}
}

// TestExhaustiveNoNodeFits: on nodes too small for a simulation there is
// no candidate, and Exhaustive says so.
func TestExhaustiveNoNodeFits(t *testing.T) {
	spec := cluster.Cori(3)
	spec.CoresPerNode = placement.SimCores - 1
	es := runtime.PaperEnsemble("small", 2, 1, 4)
	if n := len(enumerate(t, spec, es, 3)); n != 0 {
		t.Fatalf("%d candidates on %d-core nodes, want 0", n, spec.CoresPerNode)
	}
	_, err := Exhaustive(spec, es, 3, NewObjective(spec, es, indicators.StageUAP))
	if err == nil || err.Error() != "scheduler: no valid placement found" {
		t.Errorf("Exhaustive on %d-core nodes: %v, want no valid placement found", spec.CoresPerNode, err)
	}
}

// TestSearchOutcomesPinned holds every search to the winner, score bits
// and evaluation count it had before the searches shared one enumerator
// and one setup (the objective and ensemble cmd/placement uses).
func TestSearchOutcomesPinned(t *testing.T) {
	for _, c := range []struct {
		members, analyses, nodes int
		search                   string
		key                      string
		score                    uint64
		evaluated                int
	}{
		{2, 1, 3, "exhaustive", "s[0]@16|a[0]@8;s[1]@16|a[1]@8;", 0x3f945e5923b8613b, 11},
		{2, 1, 3, "greedy", "s[0]@16|a[0]@8;s[1]@16|a[1]@8;", 0x3f945e5923b8613b, 9},
		{2, 1, 3, "anneal-1", "s[0]@16|a[0]@8;s[1]@16|a[1]@8;", 0x3f945e5923b8613b, 1345},
		{2, 1, 3, "anneal-7", "s[0]@16|a[0]@8;s[1]@16|a[1]@8;", 0x3f945e5923b8613b, 1341},
		{2, 2, 4, "exhaustive", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;", 0x3f8d312d90e83d88, 132},
		{2, 2, 4, "greedy", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;", 0x3f8d312d90e83d88, 19},
		{2, 2, 4, "anneal-1", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;", 0x3f8d312d90e83d88, 1490},
		{2, 2, 4, "anneal-7", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;", 0x3f8d312d90e83d88, 1505},
		{3, 3, 4, "exhaustive", "s[0]@16|a[0]@8|a[0]@8|a[1]@8;s[2]@16|a[1]@8|a[2]@8|a[2]@8;s[3]@16|a[1]@8|a[3]@8|a[3]@8;", 0x3f6f5c742afe6d69, 23625},
		{3, 3, 4, "greedy", "s[0]@16|a[0]@8|a[0]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8|a[3]@8;s[1]@16|a[1]@8|a[3]@8|a[3]@8;", 0x3f6c21c168415510, 37},
		{3, 3, 4, "anneal-1", "s[0]@16|a[0]@8|a[0]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8|a[3]@8;s[1]@16|a[1]@8|a[3]@8|a[3]@8;", 0x3f6c21c168415510, 1539},
		{3, 3, 4, "anneal-7", "s[0]@16|a[0]@8|a[0]@8|a[1]@8;s[2]@16|a[2]@8|a[1]@8|a[2]@8;s[3]@16|a[3]@8|a[1]@8|a[3]@8;", 0x3f6f5c742afe6d69, 1597},
		{4, 2, 4, "exhaustive", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8;s[3]@16|a[3]@8|a[3]@8;", 0x3f7d312d90e83d88, 5145},
		{4, 2, 4, "greedy", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8;s[3]@16|a[3]@8|a[3]@8;", 0x3f7d312d90e83d88, 37},
		{4, 2, 4, "anneal-1", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8;s[3]@16|a[3]@8|a[3]@8;", 0x3f7d312d90e83d88, 1532},
		{4, 2, 4, "anneal-7", "s[0]@16|a[0]@8|a[0]@8;s[1]@16|a[1]@8|a[1]@8;s[2]@16|a[2]@8|a[2]@8;s[3]@16|a[3]@8|a[3]@8;", 0x3f7d312d90e83d88, 1563},
	} {
		name := fmt.Sprintf("%s %dm×%da×%dn", c.search, c.members, c.analyses, c.nodes)
		t.Run(name, func(t *testing.T) {
			spec := cluster.Cori(c.nodes)
			es := runtime.PaperEnsemble("search", c.members, c.analyses, 8)
			obj := NewObjective(spec, es, indicators.StageUAP)
			var res Result
			var err error
			switch c.search {
			case "exhaustive":
				res, err = Exhaustive(spec, es, c.nodes, obj)
			case "greedy":
				res, err = GreedyLocalSearch(spec, es, c.nodes, obj)
			case "anneal-1":
				res, err = Anneal(spec, es, c.nodes, obj, AnnealOptions{Seed: 1})
			case "anneal-7":
				res, err = Anneal(spec, es, c.nodes, obj, AnnealOptions{Seed: 7})
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Placement.Key(); got != c.key {
				t.Errorf("winner %s, want %s", got, c.key)
			}
			if got := math.Float64bits(res.Score); got != c.score {
				t.Errorf("score %v (%#x), want %v (%#x)", res.Score, got, math.Float64frombits(c.score), c.score)
			}
			if res.Evaluated != c.evaluated {
				t.Errorf("%d evaluations, want %d", res.Evaluated, c.evaluated)
			}
		})
	}
}
