package scheduler

import (
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

func TestSearchUnifiesStrategies(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	for _, strategy := range []Strategy{StrategyExhaustive, StrategyGreedy, StrategyAnneal} {
		res, err := Search(strategy, spec, es, 3, obj, nil, AnnealOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Evaluated == 0 || math.IsInf(res.Score, -1) {
			t.Errorf("%s: empty result %+v", strategy, res)
		}
	}
	if _, err := Search("bogus", spec, es, 3, obj, nil, AnnealOptions{}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestMonitorReportsProgress(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	var snaps []Progress
	mon := &Monitor{Every: 10, OnProgress: func(p Progress) { snaps = append(snaps, p) }}
	res, err := Search(StrategyExhaustive, spec, es, 3, obj, mon, AnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want periodic plus final", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Error("last snapshot not marked Final")
	}
	if last.Evaluated != res.Evaluated || last.BestScore != res.Score {
		t.Errorf("final snapshot %+v does not match result %+v", last, res)
	}
	// Periodic snapshots count monotonically and never exceed the total.
	prev := 0
	for _, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Error("non-last snapshot marked Final")
		}
		if s.Evaluated <= prev || s.Evaluated > res.Evaluated {
			t.Errorf("snapshot evaluations %d out of order (prev %d, total %d)",
				s.Evaluated, prev, res.Evaluated)
		}
		if s.Strategy != StrategyExhaustive {
			t.Errorf("snapshot strategy %q", s.Strategy)
		}
		prev = s.Evaluated
	}
}

func TestMonitorDoesNotPerturbSearch(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	opts := AnnealOptions{Iterations: 300, Seed: 7}
	plain, err := Search(StrategyAnneal, spec, es, 3, obj, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{Every: 5, OnProgress: func(Progress) {}}
	watched, err := Search(StrategyAnneal, spec, es, 3, obj, mon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Score != watched.Score || plain.Evaluated != watched.Evaluated {
		t.Errorf("monitor perturbed the search: %+v vs %+v", plain, watched)
	}
	if plain.Placement.Key() != watched.Placement.Key() {
		t.Error("monitor changed the winning placement")
	}
}

func TestAnnealProgressCallback(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	var iters []int
	var lastBest float64 = math.Inf(-1)
	opts := AnnealOptions{
		Iterations:    250,
		Seed:          3,
		ProgressEvery: 50,
		Progress: func(it int, temp, cur, best float64) {
			iters = append(iters, it)
			if temp < 0 {
				t.Errorf("negative temperature %v at iteration %d", temp, it)
			}
			if best < lastBest {
				t.Errorf("best score regressed at iteration %d: %v < %v", it, best, lastBest)
			}
			lastBest = best
		},
	}
	res, err := Anneal(spec, es, 3, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{50, 100, 150, 200, 250}
	if len(iters) != len(want) {
		t.Fatalf("progress fired at %v, want %v", iters, want)
	}
	for i := range want {
		if iters[i] != want[i] {
			t.Fatalf("progress fired at %v, want %v", iters, want)
		}
	}
	// The callback-free run lands in the same place.
	plain, err := Anneal(spec, es, 3, obj, AnnealOptions{Iterations: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Score != res.Score || plain.Evaluated != res.Evaluated {
		t.Errorf("progress callback perturbed the anneal: %+v vs %+v", plain, res)
	}
}

// TestFinalSnapshotCountsObjectiveCalls: on 4m×2a×4n the greedy start
// fills every node, so no hill-climb move fits and the objective runs
// once while Result.Evaluated counts every proposal (37). The final
// snapshot, like the periodic ones, reports objective calls; the annealer
// likewise.
func TestFinalSnapshotCountsObjectiveCalls(t *testing.T) {
	spec := cluster.Cori(4)
	es := runtime.PaperEnsemble("search", 4, 2, 8)
	obj := NewObjective(spec, es, indicators.StageUAP)
	for _, strategy := range []Strategy{StrategyGreedy, StrategyAnneal} {
		calls := 0
		counted := func(p placement.Placement) (float64, error) {
			calls++
			return obj(p)
		}
		var last Progress
		mon := &Monitor{OnProgress: func(p Progress) { last = p }}
		res, err := Search(strategy, spec, es, 4, counted, mon, AnnealOptions{Iterations: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !last.Final || last.Evaluated != calls {
			t.Errorf("%s: final snapshot %+v, want Final with %d objective calls", strategy, last, calls)
		}
		if res.Evaluated <= calls {
			t.Errorf("%s: Result.Evaluated %d, want the proposals beyond the %d calls", strategy, res.Evaluated, calls)
		}
	}
}
