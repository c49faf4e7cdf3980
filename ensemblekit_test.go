package ensemblekit

import "testing"

func TestQuickstartFlow(t *testing.T) {
	cfg := ConfigC15()
	spec := Cori(3)
	es := SpecForPlacement(cfg, 8)
	tr, err := RunSimulated(spec, cfg, es, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	effs, err := Efficiencies(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(effs) != 2 {
		t.Fatalf("efficiencies = %v", effs)
	}
	for _, e := range effs {
		if e <= 0 || e > 1 {
			t.Errorf("E = %v outside (0,1]", e)
		}
	}
	f, err := Objective(cfg, effs, StageUAP)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 {
		t.Errorf("F = %v, want positive", f)
	}
	rep, err := IndicatorsReport(cfg, effs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerStage["U,A,P"] != f {
		t.Error("report and objective disagree")
	}
	ss, err := MemberSteadyState(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Sigma() <= 0 {
		t.Error("non-positive sigma")
	}
	if _, err := MemberSteadyState(tr, 9); err == nil {
		t.Error("out-of-range member should fail")
	}
}

func TestFacadeConfigs(t *testing.T) {
	if len(ConfigsTable2()) != 7 || len(ConfigsTable4()) != 8 {
		t.Error("config tables incomplete")
	}
	if _, ok := ConfigByName("C1.5"); !ok {
		t.Error("C1.5 should resolve")
	}
	if ConfigCf().Name != "C_f" || ConfigCc().Name != "C_c" {
		t.Error("elementary configs misnamed")
	}
	cp, err := PlacementIndicator(ConfigC15().Members[0])
	if err != nil || cp != 1 {
		t.Errorf("CP(C1.5 member) = %v, %v; want 1", cp, err)
	}
}

func TestFacadeSweepAndSchedule(t *testing.T) {
	points, err := CoreSweep(Cori(2), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	best, err := RecommendCores(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cores != 8 {
		t.Errorf("recommended %d cores, want 8", best.Cores)
	}
	res, err := SchedulePlacement(Cori(3), PaperEnsemble("s", 2, 1, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Key() != ConfigC15().Key() {
		t.Errorf("scheduler best = %s, want the C1.5 pattern", res.Placement)
	}
	gr, err := SchedulePlacementGreedy(Cori(3), PaperEnsemble("s", 2, 1, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Score < res.Score-1e-12 {
		t.Errorf("greedy (%v) below exhaustive (%v)", gr.Score, res.Score)
	}
}

func TestAnalysisFacade(t *testing.T) {
	cfg := ConfigC15()
	tr, err := RunSimulated(Cori(3), cfg, SpecForPlacement(cfg, 8), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ss, warm, err := AutoSteadyState(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Sigma() <= 0 || warm < 0 {
		t.Errorf("auto steady state: sigma=%v warm=%d", ss.Sigma(), warm)
	}
	if _, _, err := AutoSteadyState(tr, 99); err == nil {
		t.Error("out-of-range member should fail")
	}
	stragglers, err := StragglersOf(tr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(stragglers) != 0 {
		t.Errorf("symmetric ensemble should have no stragglers: %+v", stragglers)
	}
	grad, err := EfficiencySensitivity(cfg, []float64{0.7, 0.95}, StageUAP)
	if err != nil {
		t.Fatal(err)
	}
	if len(grad) != 2 || grad[0] <= grad[1] {
		t.Errorf("sensitivity should favour the straggler: %v", grad)
	}
	points, err := ProvisioningGrid(Cori(2), GridOptions{Strides: []int{800, 1600}, Cores: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("grid = %v", points)
	}
	best, err := BestThroughput(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.Stride == 0 {
		t.Error("no best point")
	}
	res, err := SchedulePlacementAnneal(Cori(3), PaperEnsemble("a", 2, 1, 6), 3, AnnealOptions{Iterations: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Key() != ConfigC15().Key() {
		t.Errorf("annealing should find the C1.5 pattern, got %s", res.Placement)
	}
}
