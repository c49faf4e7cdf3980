package scheduler

import (
	"fmt"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// collectCandidates snapshots one enumeration: names and canonical keys
// in visit order.
func collectCandidates(spec cluster.Spec, shape [][]int, maxNodes int) []string {
	var out []string
	enumeratePlacements(spec, shape, maxNodes, func(p placement.Placement) {
		out = append(out, p.Name+" "+p.Key())
	})
	return out
}

// TestEnumerationCacheReplay pins the shared-enumeration fix: repeated
// searches over the same (spec, shape, maxNodes) must replay the memoized
// candidate list — identical placements, names, and order — without
// re-running the exponential enumeration.
func TestEnumerationCacheReplay(t *testing.T) {
	spec := cluster.Cori(2)
	// A spec tweak keys this test away from enumerations cached by other
	// tests in the package, so the build count below is deterministic.
	spec.NICLatency += 1e-12
	shape, err := shapeOf(runtime.PaperEnsemble("enumcache", 2, 1, 4))
	if err != nil {
		t.Fatal(err)
	}

	builds0 := enumBuilds.Load()
	first := collectCandidates(spec, shape, 2)
	if len(first) == 0 {
		t.Fatal("enumeration produced no candidates")
	}
	if got := enumBuilds.Load() - builds0; got != 1 {
		t.Fatalf("first enumeration ran %d builds, want 1", got)
	}

	hits0 := enumHits.Load()
	second := collectCandidates(spec, shape, 2)
	if got := enumBuilds.Load() - builds0; got != 1 {
		t.Fatalf("second enumeration re-built (%d builds total, want 1)", got)
	}
	if enumHits.Load() == hits0 {
		t.Fatal("second enumeration missed the cache")
	}
	if len(second) != len(first) {
		t.Fatalf("replay yielded %d candidates, first run %d", len(second), len(first))
	}
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("candidate %d: replay %q != first %q", i, second[i], first[i])
		}
	}

	// A different node budget is a different key, never a stale replay.
	builds1 := enumBuilds.Load()
	wider := collectCandidates(spec, shape, 1)
	if got := enumBuilds.Load() - builds1; got != 1 {
		t.Fatalf("changed maxNodes ran %d builds, want 1", got)
	}
	if len(wider) >= len(first) {
		t.Fatalf("maxNodes=1 yielded %d candidates, want fewer than %d", len(wider), len(first))
	}

	// Renaming a served candidate (what the searches do to the winner)
	// must not leak into the cache.
	var renamed placement.Placement
	enumeratePlacements(spec, shape, 2, func(p placement.Placement) {
		if renamed.Name == "" {
			renamed = p
			renamed.Name = "exhaustive-best"
		}
	})
	replay := collectCandidates(spec, shape, 2)
	if replay[0] != first[0] {
		t.Fatalf("rename leaked into the cache: %q != %q", replay[0], first[0])
	}
}

// TestEnumerationIsPlacementEnumerate: the scheduler's enumeration visits
// placement.Enumerate's candidates (TestEnumerateEqualsBruteForce pins
// those to the brute force) in the same order, under its own names.
func TestEnumerationIsPlacementEnumerate(t *testing.T) {
	for _, c := range []struct{ members, analyses, nodes int }{
		{2, 1, 3}, {3, 1, 4}, {2, 2, 4}, {2, 3, 4},
	} {
		spec := cluster.Cori(c.nodes)
		es := runtime.PaperEnsemble("enum", c.members, c.analyses, 4)
		shape, err := shapeOf(es)
		if err != nil {
			t.Fatal(err)
		}
		pshape := placement.Shape{SimCores: placement.SimCores, Members: c.members}
		for range c.analyses {
			pshape.AnalysisCores = append(pshape.AnalysisCores, placement.AnalysisCores)
		}
		want, err := placement.Enumerate(spec, pshape, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		enumerateRaw(spec, shape, c.nodes, func(p placement.Placement) {
			if i >= len(want) || p.Key() != want[i].Key() || p.Name != fmt.Sprintf("candidate-%d", i+1) {
				t.Fatalf("%+v: candidate %d is %s %s", c, i, p.Name, p.Key())
			}
			i++
		})
		if i != len(want) {
			t.Errorf("%+v: %d candidates, placement.Enumerate %d", c, i, len(want))
		}
	}
}
