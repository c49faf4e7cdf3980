package experiments

import (
	"testing"

	"ensemblekit/internal/placement"
)

func TestFaultStudy(t *testing.T) {
	rows, err := FaultStudy(quick())
	if err != nil {
		t.Fatal(err)
	}
	want := len(placement.ConfigsTable2()) * len(FaultRates)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Rate == 0 {
			if r.Retries != 0 || r.Dropped != 0 {
				t.Errorf("%s: fault-free baseline recorded retries %v / drops %v",
					r.Config, r.Retries, r.Dropped)
			}
			if r.Slowdown != 1 {
				t.Errorf("%s: baseline slowdown %v, want 1", r.Config, r.Slowdown)
			}
		}
		if r.Makespan <= 0 || r.Slowdown <= 0 {
			t.Errorf("%s rate %v: non-positive makespan/slowdown", r.Config, r.Rate)
		}
	}
	// The degradation curve: the heaviest fault rate must cost at least as
	// much makespan as the fault-free baseline on every configuration.
	base := map[string]float64{}
	worst := map[string]float64{}
	for _, r := range rows {
		if r.Rate == 0 {
			base[r.Config] = r.Makespan
		}
		if r.Rate == FaultRates[len(FaultRates)-1] {
			worst[r.Config] = r.Makespan
		}
	}
	for cfgName, b := range base {
		if worst[cfgName] < b {
			t.Errorf("%s: makespan under faults (%v) below the baseline (%v)",
				cfgName, worst[cfgName], b)
		}
	}
	if faultTable(rows).NumRows() != want {
		t.Error("table rendering lost rows")
	}
}

// TestFaultStudyPaperScale runs the study at the paper's scale, where
// some C_f trials at rate 0.2 drop every member: such a trial scores
// zero rather than failing the study, and the row shows the loss.
func TestFaultStudyPaperScale(t *testing.T) {
	rows, err := FaultStudy(Config{}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var base, worst *FaultRow
	for i, r := range rows {
		if r.Config != "C_f" {
			continue
		}
		switch r.Rate {
		case 0:
			base = &rows[i]
		case 0.2:
			worst = &rows[i]
		}
	}
	if base == nil || worst == nil {
		t.Fatalf("no C_f rows at rates 0 and 0.2 in %d rows", len(rows))
	}
	if worst.Dropped <= 0 {
		t.Errorf("C_f rate 0.2: dropped %v, want > 0", worst.Dropped)
	}
	if worst.Objective >= base.Objective {
		t.Errorf("C_f: F(P) survivors %v at rate 0.2, not below %v at rate 0", worst.Objective, base.Objective)
	}
}
