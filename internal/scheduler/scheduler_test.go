package scheduler

import (
	"fmt"
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

func paperSetup() (cluster.Spec, runtime.EnsembleSpec) {
	spec := cluster.Cori(3)
	es := runtime.PaperEnsemble("sched-test", 2, 1, 8)
	return spec, es
}

func TestAnalyticObjectiveRanksC15First(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	best, bestScore := "", math.Inf(-1)
	for _, cfg := range placement.ConfigsTable2TwoMember() {
		score, err := obj(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if score > bestScore {
			best, bestScore = cfg.Name, score
		}
	}
	if best != "C1.5" {
		t.Errorf("analytic objective picks %s, want C1.5", best)
	}
}

// TestObjectiveIsTheSimulation holds the objective to its oracle — F
// over the efficiencies of a jitter-free simulated run — on every
// enumerated placement of four shapes, and checks the closed-form branch
// rule both ways: where the plan calls the closed form exact, its steady
// states equal the run's; where it does not (2m×3a×4n: six remote reads
// on one NIC, past the five it carries at the per-flow rate), they part.
func TestObjectiveIsTheSimulation(t *testing.T) {
	const tol = 1e-12
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }
	for _, sh := range []struct{ members, analyses, nodes, candidates, inexact int }{
		{2, 1, 3, 11, 0},
		{3, 1, 4, 100, 0},
		{2, 2, 4, 132, 0},
		{2, 3, 4, 1460, 115},
	} {
		name := fmt.Sprintf("%dm×%da×%dn", sh.members, sh.analyses, sh.nodes)
		spec := cluster.Cori(sh.nodes)
		es := runtime.PaperEnsemble(name, sh.members, sh.analyses, 8)
		cands := enumerate(t, spec, es, sh.nodes)
		if len(cands) != sh.candidates {
			t.Fatalf("%s: %d candidates, want %d", name, len(cands), sh.candidates)
		}
		obj := NewObjective(spec, es, indicators.StageUAP)
		inexact := 0
		for _, p := range cands {
			got, err := obj(p)
			if err != nil {
				t.Fatalf("%s %s: %v", name, p, err)
			}
			tr, err := runtime.RunSimulated(spec, p, es, runtime.SimOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, p, err)
			}
			effs, err := Efficiencies(tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := indicators.Objective(p, effs, indicators.StageUAP)
			if err != nil {
				t.Fatal(err)
			}
			if !near(got, want) {
				t.Errorf("%s %s: objective %v, simulation %v", name, p, got, want)
			}

			states, exact, err := runtime.SteadyStates(spec, p, es)
			if err != nil {
				t.Fatal(err)
			}
			equal := true
			for i, ss := range states {
				m, err := core.FromMemberTrace(tr.Members[i], core.ExtractOptions{})
				if err != nil {
					t.Fatal(err)
				}
				equal = equal && near(ss.S, m.S) && near(ss.W, m.W)
				for j, c := range ss.Couplings {
					equal = equal && near(c.R, m.Couplings[j].R) && near(c.A, m.Couplings[j].A)
				}
			}
			if exact && !equal {
				t.Errorf("%s %s: closed form called exact but parts from the simulation", name, p)
			}
			if !exact {
				inexact++
				if equal {
					t.Errorf("%s %s: closed form called inexact but equals the simulation", name, p)
				}
			}
		}
		if inexact != sh.inexact {
			t.Errorf("%s: %d placements inexact, want %d", name, inexact, sh.inexact)
		}
	}
}

func TestExhaustiveFindsFullCoLocation(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	res, err := Exhaustive(spec, es, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatal("nothing evaluated")
	}
	// The optimum of the paper's objective is the C1.5 pattern: each
	// member fully co-located on its own node.
	if res.Placement.Key() != placement.C15().Key() {
		t.Errorf("exhaustive best = %s (score %v), want the C1.5 pattern",
			res.Placement.String(), res.Score)
	}
	// Its score must match the direct evaluation of C1.5.
	want, err := obj(placement.C15())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-want) > 1e-12 {
		t.Errorf("score %v != direct C1.5 score %v", res.Score, want)
	}
}

func TestGreedyMatchesExhaustiveOnPaperInstance(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	ex, err := Exhaustive(spec, es, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := GreedyLocalSearch(spec, es, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Score < ex.Score-1e-12 {
		t.Errorf("greedy score %v below exhaustive %v", gr.Score, ex.Score)
	}
	if gr.Evaluated >= ex.Evaluated {
		t.Logf("note: greedy evaluated %d vs exhaustive %d (small instance)", gr.Evaluated, ex.Evaluated)
	}
}

func TestGreedyScalesToLargerEnsembles(t *testing.T) {
	spec := cluster.Cori(6)
	es := runtime.PaperEnsemble("big", 4, 2, 6)
	obj := NewObjective(spec, es, indicators.StageUAP)
	res, err := GreedyLocalSearch(spec, es, 6, obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(spec); err != nil {
		t.Fatalf("greedy placement invalid: %v", err)
	}
	// Full co-location per member is feasible (16+8+8 = 32) and optimal;
	// greedy should find every member co-located.
	for i, m := range res.Placement.Members {
		cp, err := indicators.CP(m)
		if err != nil {
			t.Fatal(err)
		}
		if cp != 1 {
			t.Errorf("member %d not fully co-located (CP=%v) in %s", i, cp, res.Placement)
		}
	}
}

func TestEfficienciesErrors(t *testing.T) {
	if _, err := Efficiencies(nil); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestSearchValidation(t *testing.T) {
	spec, _ := paperSetup()
	obj := func(p placement.Placement) (float64, error) { return 0, nil }
	if _, err := Exhaustive(spec, runtime.EnsembleSpec{}, 2, obj); err == nil {
		t.Error("empty ensemble should fail")
	}
	if _, err := GreedyLocalSearch(spec, runtime.EnsembleSpec{}, 2, obj); err == nil {
		t.Error("empty ensemble should fail")
	}
}

func TestAnnealMatchesExhaustiveOnPaperInstance(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	ex, err := Exhaustive(spec, es, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Anneal(spec, es, 3, obj, AnnealOptions{Iterations: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if an.Score < ex.Score-1e-12 {
		t.Errorf("annealing score %v below exhaustive optimum %v", an.Score, ex.Score)
	}
	if err := an.Placement.Validate(spec); err != nil {
		t.Fatalf("annealed placement invalid: %v", err)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	spec, es := paperSetup()
	obj := NewObjective(spec, es, indicators.StageUAP)
	a, err := Anneal(spec, es, 3, obj, AnnealOptions{Iterations: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(spec, es, 3, obj, AnnealOptions{Iterations: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("same seed diverges: %v vs %v", a.Score, b.Score)
	}
}

func TestAnnealLargerInstance(t *testing.T) {
	spec := cluster.Cori(6)
	es := runtime.PaperEnsemble("anneal-big", 4, 2, 6)
	obj := NewObjective(spec, es, indicators.StageUAP)
	gr, err := GreedyLocalSearch(spec, es, 6, obj)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Anneal(spec, es, 6, obj, AnnealOptions{Iterations: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Annealing should reach at least 95% of greedy's score on this
	// instance (both typically find the co-located optimum).
	if an.Score < 0.95*gr.Score {
		t.Errorf("annealing %v too far below greedy %v", an.Score, gr.Score)
	}
}

func TestAnnealValidation(t *testing.T) {
	spec, _ := paperSetup()
	obj := func(p placement.Placement) (float64, error) { return 0, nil }
	if _, err := Anneal(spec, runtime.EnsembleSpec{}, 2, obj, AnnealOptions{}); err == nil {
		t.Error("empty ensemble should fail")
	}
}
