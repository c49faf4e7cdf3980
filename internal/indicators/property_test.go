package indicators_test

import (
	"math"
	"math/rand"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/stats"
	"ensemblekit/internal/workload"
)

// relTol bounds the relative difference two computations of one quantity
// may show because they sum the same floats in another order (a member
// permutation reorders the means and the kernel's fold); a real violation
// of the properties below is many orders larger.
const relTol = 1e-12

// priceF prices a placement as its jitter-free steady state and returns
// each member's E, its P_i at P^{U,A,P} and F(P^{U,A,P}).
func priceF(t *testing.T, spec cluster.Spec, p placement.Placement, es runtime.EnsembleSpec) (effs, values []float64, f float64) {
	t.Helper()
	states, err := runtime.PriceSteadyStates(spec, p, es)
	if err != nil {
		t.Fatal(err)
	}
	if effs, err = core.StateEfficiencies(states); err != nil {
		t.Fatal(err)
	}
	if values, err = indicators.PerMember(p, effs, indicators.StageUAP); err != nil {
		t.Fatal(err)
	}
	if f, err = indicators.F(values); err != nil {
		t.Fatal(err)
	}
	return effs, values, f
}

// TestPaperPropertiesOnRandomEnsembles checks three of the paper's
// equations over seeded random ensembles (workload.Random: 2–4 members,
// 1–3 analyses of 0.5–2× the calibrated cost, strides 400–1 600) on
// seeded random placements (workload.RandomPlacement):
//   - Eq. 3: every member's efficiency E ≤ 1;
//   - Eq. 9: F(P^{U,A,P}) = mean − stddev of the P_i ≤ their mean;
//   - F is unchanged when the members of the placement and of the
//     ensemble are permuted together.
//
// Each comparison allows relTol relative slack for summation order. A
// failure names the seed.
func TestPaperPropertiesOnRandomEnsembles(t *testing.T) {
	const seeds = 200
	priced := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		es := workload.Random(workload.GenOptions{
			Members:     2 + rng.Intn(3),
			MinAnalyses: 1, MaxAnalyses: 3,
			StrideMin: 400, StrideMax: 1600,
			AnalysisScaleMin: 0.5, AnalysisScaleMax: 2,
			Steps: 12,
			Seed:  seed,
		})
		spec := cluster.Cori(len(es.Members) + 1 + rng.Intn(len(es.Members)))
		p, err := workload.RandomPlacement(spec, es, seed)
		if err != nil {
			continue // this seed's first fit fragmented the nodes
		}
		priced++
		effs, values, f := priceF(t, spec, p, es)
		for i, e := range effs {
			if e > 1+relTol {
				t.Errorf("seed %d: member %d E = %v > 1 (Eq. 3)", seed, i, e)
			}
		}
		if mean := stats.Mean(values); f > mean+relTol*math.Abs(mean) {
			t.Errorf("seed %d: F = %v above the mean P_i %v (Eq. 9)", seed, f, mean)
		}

		perm := rng.Perm(len(es.Members))
		pp, pes := p, es
		pp.Members = make([]placement.Member, len(perm))
		pes.Members = make([]runtime.MemberSpec, len(perm))
		for i, j := range perm {
			pp.Members[i], pes.Members[i] = p.Members[j], es.Members[j]
		}
		if _, _, pf := priceF(t, spec, pp, pes); math.Abs(pf-f) > relTol*math.Abs(f) {
			t.Errorf("seed %d: F = %v, %v with the members permuted by %v", seed, f, pf, perm)
		}
	}
	if priced < seeds*3/4 {
		t.Fatalf("only %d of %d seeds produced a placement", priced, seeds)
	}
}
