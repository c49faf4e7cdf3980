package scheduler

import (
	"context"
	"slices"
	"testing"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// TestServiceEfficienciesMatchTrace: the efficiencies a service result
// carries are exactly what Efficiencies extracts from the job's trace, so
// scoring from the result instead of re-walking the trace changes no
// score — over Table 2 × 3 seeds.
func TestServiceEfficienciesMatchTrace(t *testing.T) {
	svc := newTestService(t, 2)
	spec := cluster.Cori(1)
	for _, p := range placement.ConfigsTable2() {
		es := runtime.SpecForPlacement(p, 8)
		for seed := int64(1); seed <= 3; seed++ {
			opts := runtime.SimOptions{Seed: seed, Jitter: 0.02}
			js, err := campaign.NewJob(spec, p, es, opts)
			if err != nil {
				t.Fatal(err)
			}
			j, err := svc.SubmitWait(context.Background(), js, campaign.SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := j.Trace()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Efficiencies(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Efficiencies, want) {
				t.Errorf("%s seed %d: result efficiencies %v, trace gives %v", p.Name, seed, res.Efficiencies, want)
			}
			got, err := ServiceObjective(svc, spec, es, opts, indicators.StageUAP)(p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SimulatedObjective(spec, es, opts, indicators.StageUAP)(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("%s seed %d: service objective %v, simulated %v", p.Name, seed, got, ref)
			}
		}
	}
}
