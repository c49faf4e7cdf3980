package heuristic

import (
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/kernels"
	"ensemblekit/internal/runtime"
)

func runSweep(t *testing.T) []SweepPoint {
	t.Helper()
	spec := cluster.Cori(2)
	points, err := CoreSweep(spec, kernels.MDProfile(kernels.ReferenceStride),
		kernels.AnalysisProfile(), PaperCoreCounts(), SweepOptions{Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(PaperCoreCounts()) {
		t.Fatalf("points = %d, want %d", len(points), len(PaperCoreCounts()))
	}
	return points
}

func TestCoreSweepFigure7Shapes(t *testing.T) {
	points := runSweep(t)
	byCores := make(map[int]SweepPoint)
	for _, p := range points {
		byCores[p.Cores] = p
	}
	// Figure 7: with 1-4 cores the analysis exceeds the simulation step
	// (sigma = R+A); with 8-32 cores Equation 4 is satisfied and sigma
	// collapses to S+W.
	for _, c := range []int{1, 2, 4} {
		if byCores[c].SatisfiesEq4 {
			t.Errorf("%d cores should violate Eq. 4", c)
		}
		if byCores[c].Sigma <= byCores[c].SimBusy {
			t.Errorf("%d cores: sigma should be the analysis side", c)
		}
	}
	for _, c := range []int{8, 16, 24, 32} {
		if !byCores[c].SatisfiesEq4 {
			t.Errorf("%d cores should satisfy Eq. 4", c)
		}
	}
	// AnaBusy decreases monotonically with cores.
	for i := 1; i < len(points); i++ {
		if points[i].AnaBusy >= points[i-1].AnaBusy {
			t.Errorf("analysis busy time should shrink with cores: %v", points)
		}
	}
	// Among feasible points, E decreases beyond 8 cores (idle analysis
	// time grows).
	if !(byCores[8].Efficiency > byCores[16].Efficiency &&
		byCores[16].Efficiency > byCores[32].Efficiency) {
		t.Errorf("E should peak at 8 cores: E8=%v E16=%v E32=%v",
			byCores[8].Efficiency, byCores[16].Efficiency, byCores[32].Efficiency)
	}
}

func TestRecommendPicks8Cores(t *testing.T) {
	points := runSweep(t)
	best, err := Recommend(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cores != 8 {
		t.Errorf("recommended %d cores, want 8 (the paper's choice)", best.Cores)
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	if _, err := Recommend(nil); err == nil {
		t.Error("empty sweep should fail")
	}
	single := []SweepPoint{{Cores: 4, Sigma: 10, Efficiency: 0.5}}
	best, err := Recommend(single)
	if err != nil || best.Cores != 4 {
		t.Errorf("single point should be recommended: %+v, %v", best, err)
	}
}

func TestCoreSweepValidation(t *testing.T) {
	spec := cluster.Cori(2)
	sim := kernels.MDProfile(0)
	ana := kernels.AnalysisProfile()
	if _, err := CoreSweep(spec, sim, ana, nil, SweepOptions{}); err == nil {
		t.Error("empty core list should fail")
	}
	if _, err := CoreSweep(spec, sim, ana, []int{0}, SweepOptions{}); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := CoreSweep(spec, sim, ana, []int{64}, SweepOptions{}); err == nil {
		t.Error("more cores than a node should fail")
	}
	if _, err := CoreSweep(cluster.Cori(1), sim, ana, []int{8}, SweepOptions{}); err == nil {
		t.Error("single-node machine cannot host the co-location-free probe")
	}
	_ = runtime.PaperSteps
}

func TestAnalyticSweepAgreesWithDES(t *testing.T) {
	spec := cluster.Cori(2)
	sim := kernels.MDProfile(kernels.ReferenceStride)
	ana := kernels.AnalysisProfile()
	des, err := CoreSweep(spec, sim, ana, PaperCoreCounts(), SweepOptions{Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := AnalyticCoreSweep(spec, sim, ana, PaperCoreCounts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != len(analytic) {
		t.Fatalf("length mismatch: %d vs %d", len(des), len(analytic))
	}
	// The probe reads once per step over an unshared link, so the closed
	// form is the simulation: every field agrees to rounding.
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y)) }
	for i := range des {
		d, a := des[i], analytic[i]
		if d.Cores != a.Cores || d.SatisfiesEq4 != a.SatisfiesEq4 ||
			!near(d.SimBusy, a.SimBusy) || !near(d.AnaBusy, a.AnaBusy) ||
			!near(d.Sigma, a.Sigma) || !near(d.Efficiency, a.Efficiency) {
			t.Errorf("%d cores: simulated %+v, analytic %+v", d.Cores, d, a)
		}
	}
	// Both recommend the same allocation.
	dBest, err := Recommend(des)
	if err != nil {
		t.Fatal(err)
	}
	aBest, err := Recommend(analytic)
	if err != nil {
		t.Fatal(err)
	}
	if dBest.Cores != aBest.Cores {
		t.Errorf("recommendations diverge: DES %d vs analytic %d cores", dBest.Cores, aBest.Cores)
	}
}

func TestAnalyticSweepValidation(t *testing.T) {
	spec := cluster.Cori(2)
	sim := kernels.MDProfile(0)
	ana := kernels.AnalysisProfile()
	if _, err := AnalyticCoreSweep(spec, sim, ana, nil, 16); err == nil {
		t.Error("empty core list should fail")
	}
	if _, err := AnalyticCoreSweep(spec, sim, ana, []int{0}, 16); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := AnalyticCoreSweep(cluster.Cori(1), sim, ana, []int{8}, 16); err == nil {
		t.Error("single-node machine cannot host the co-location-free probe")
	}
}

func TestGridSearch(t *testing.T) {
	spec := cluster.Cori(2)
	points, err := GridSearch(spec, GridOptions{MakespanBudget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*7 { // 4 strides x 7 core counts
		t.Fatalf("points = %d, want 28", len(points))
	}
	for _, p := range points {
		if p.Sigma <= 0 || p.Efficiency <= 0 {
			t.Fatalf("malformed point %+v", p)
		}
		if p.StepsForBudget <= 0 {
			t.Fatalf("budget steps missing in %+v", p)
		}
	}
	// Longer strides lengthen the simulation side: at fixed cores, sigma
	// is non-decreasing in stride.
	byCell := map[[2]int]GridPoint{}
	for _, p := range points {
		byCell[[2]int{p.Stride, p.Cores}] = p
	}
	if byCell[[2]int{1600, 8}].Sigma <= byCell[[2]int{800, 8}].Sigma {
		t.Error("doubling the stride should lengthen sigma at fixed cores")
	}
	// A longer stride tolerates fewer analysis cores: stride 1600 should
	// satisfy Eq. 4 already at 4 cores (S+W ~ 20s > R+A(4) ~ 15s) while
	// stride 800 does not.
	if byCell[[2]int{800, 4}].SatisfiesEq4 {
		t.Error("stride 800 with 4 cores should violate Eq. 4")
	}
	if !byCell[[2]int{1600, 4}].SatisfiesEq4 {
		t.Error("stride 1600 with 4 cores should satisfy Eq. 4")
	}

	best, err := BestThroughput(points)
	if err != nil {
		t.Fatal(err)
	}
	if !best.SatisfiesEq4 {
		t.Errorf("best point must satisfy Eq. 4: %+v", best)
	}
	// Throughput stride/sigma: under Eq. 4 sigma ~ stride-proportional
	// plus fixed staging, so the longest stride amortizes best.
	if best.Stride != 1600 {
		t.Errorf("best stride = %d, want 1600 (staging amortization)", best.Stride)
	}
}

func TestGridSearchValidation(t *testing.T) {
	spec := cluster.Cori(2)
	if _, err := GridSearch(spec, GridOptions{Strides: []int{0}}); err == nil {
		t.Error("non-positive stride should fail")
	}
	if _, err := BestThroughput(nil); err == nil {
		t.Error("empty grid should fail")
	}
	// A grid where nothing satisfies Eq. 4 (1-core analyses only).
	pts, err := GridSearch(spec, GridOptions{Strides: []int{200}, Cores: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BestThroughput(pts); err == nil {
		t.Error("infeasible grid should fail")
	}
}
