package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
)

func TestRunExhaustive(t *testing.T) {
	if err := run(2, 1, 3, "exhaustive", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedy(t *testing.T) {
	if err := run(2, 2, 3, "greedy", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnnealWithProgress(t *testing.T) {
	if err := run(2, 1, 3, "anneal", 3, 200, 7, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(2, 1, 3, "magic", 3, 0, 1, false); err == nil {
		t.Error("unknown mode should fail")
	}
	// An ensemble that cannot fit: 4 members x 24 cores on 1 node.
	if err := run(4, 1, 1, "exhaustive", 3, 0, 1, false); err == nil {
		t.Error("infeasible instance should fail")
	}
}

// TestRankTiesAreStable: ranks 1–8 of 2 members × 3 analyses on 4 nodes
// tie at F = 0.0063 up to float noise. They come out in one order, by
// placement key, on every scoring and whatever order the candidates
// arrive in.
func TestRankTiesAreStable(t *testing.T) {
	const members, analyses, nodes, top = 2, 3, 4, 8
	spec := cluster.Cori(nodes)
	es := runtime.PaperEnsemble("search", members, analyses, 8)
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	shape, err := scheduler.ShapeOf(es)
	if err != nil {
		t.Fatal(err)
	}
	var candidates []placement.Placement
	if err := placement.Enumerate(spec, shape, nodes, func(p placement.Placement) {
		candidates = append(candidates, p)
	}); err != nil {
		t.Fatal(err)
	}
	topKeys := func(order []placement.Placement) []string {
		all := score(order, obj)
		rank(all)
		var keys []string
		for _, s := range all[:top] {
			if math.Abs(s.f-all[0].f) > tieTolerance*math.Abs(all[0].f) {
				t.Fatalf("rank %d: F = %v does not tie rank 1's %v", len(keys)+1, s.f, all[0].f)
			}
			keys = append(keys, s.key)
		}
		return keys
	}
	want := topKeys(candidates)
	if !slices.IsSorted(want) {
		t.Errorf("tied ranks 1–%d are not in key order: %q", top, want)
	}
	orders := map[string][]placement.Placement{"again": candidates, "reversed": slices.Clone(candidates)}
	slices.Reverse(orders["reversed"])
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := slices.Clone(candidates)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		orders[fmt.Sprintf("shuffle %d", seed)] = shuffled
	}
	for name, order := range orders {
		if got := topKeys(order); !slices.Equal(got, want) {
			t.Errorf("%s: ranks 1–%d are %q, want %q", name, top, got, want)
		}
	}
}

// TestRankTiesWithinTolerance: F values apart by float noise (≤ 1e-12
// relative) are one tie, ordered by key; a real difference still ranks.
func TestRankTiesWithinTolerance(t *testing.T) {
	const f = 0.0063
	all := []scored{
		{key: "d", f: f * (1 - 1e-9)},
		{key: "c", f: f},
		{key: "b", f: f * (1 + 2e-16)},
		{key: "a", f: f * (1 - 3e-15)},
		{key: "z", f: f * (1 + 1e-9)},
	}
	rank(all)
	var got []string
	for _, s := range all {
		got = append(got, s.key)
	}
	if want := []string{"z", "a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Errorf("ranked %q, want %q", got, want)
	}
}
