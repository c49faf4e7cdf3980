package runtime

import (
	"encoding/json"
	"fmt"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
)

// TestPlanCacheBounded drives half again as many distinct plans as
// planSlots through one World, twice over: the cache never holds more
// than planSlots plans, and every run through it (a first build, a reuse,
// or the rebuild of an evicted plan) is byte-identical to the same run on
// a fresh World.
func TestPlanCacheBounded(t *testing.T) {
	run := func(w *World, p placement.Placement) string {
		t.Helper()
		tr, err := RunSimulated(cluster.Cori(3), p, SpecForPlacement(p, 4),
			SimOptions{Jitter: 0.02, Seed: 7, World: w})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	table2 := placement.ConfigsTable2()
	w := NewWorld()
	n := planSlots + planSlots/2
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			p := table2[i%len(table2)]
			p.Name = fmt.Sprintf("%s#%d", p.Name, i) // the name is part of the plan key
			if got, want := run(w, p), run(NewWorld(), p); got != want {
				t.Fatalf("round %d, %s: the shared World's run differs from a fresh one's", round, p.Name)
			}
			w.mu.Lock()
			held := len(w.plans)
			w.mu.Unlock()
			if held > planSlots {
				t.Fatalf("round %d, %s: %d plans held, want ≤ %d", round, p.Name, held, planSlots)
			}
		}
	}
	st := w.Stats()
	if st.PlanHits+st.PlanMisses != int64(2*n) || st.PlanMisses < int64(n) {
		t.Errorf("%d hits, %d misses over %d runs of %d distinct plans", st.PlanHits, st.PlanMisses, 2*n, n)
	}
	t.Logf("%d runs of %d distinct plans: %d hits, %d misses", 2*n, n, st.PlanHits, st.PlanMisses)
}
