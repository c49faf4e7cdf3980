package campaign

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// TestSummaryResultIsDerive: a kernel-served job's Result, which
// executeSpec builds from the kernel's summary sink, equals bit for bit
// the Result derive builds from the same run's trace (Execute): every
// efficiency, the objective, the makespan and every ledger field, over
// Table 2 and Table 4 at 1, 8 and 128 steps, unjittered and jittered on
// three seeds, through one World as the service runs them.
func TestSummaryResultIsDerive(t *testing.T) {
	world := runtime.NewWorld()
	configs := append(placement.ConfigsTable2(), placement.ConfigsTable4()...)
	n := 0
	for _, p := range configs {
		for _, steps := range []int{1, 8, 128} {
			for _, opts := range []runtime.SimOptions{{}, {Jitter: 0.02, Seed: 1}, {Jitter: 0.02, Seed: 2}, {Jitter: 0.02, Seed: 701}} {
				name := fmt.Sprintf("%s/steps%d/j%v/seed%d", p.Name, steps, opts.Jitter, opts.Seed)
				spec, err := NewJob(cluster.Cori(1), p, runtime.SpecForPlacement(p, steps), opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Execute(spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, info, err := executeSpec(context.Background(), nil, want.Hash, spec, world)
				if err != nil || !info.FastPath {
					t.Fatalf("%s: kernel served %v, err %v", name, info.FastPath, err)
				}
				if d := resultDiff(got, want); d != "" {
					t.Fatalf("%s: summary result differs from derive's at %s", name, d)
				}
				n++
			}
		}
	}
	t.Logf("%d jobs, bit-identical", n)
}

// resultDiff names the first field where two results differ, floats by
// bit pattern, or returns "". The trace, which only Execute sets, is not
// compared.
func resultDiff(a, b *Result) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.Hash != b.Hash:
		return "hash"
	case len(a.Efficiencies) != len(b.Efficiencies):
		return "efficiencies"
	case !same(a.Objective, b.Objective):
		return "objective"
	case !same(a.Makespan, b.Makespan):
		return "makespan"
	case a.Dropped != b.Dropped || (a.DroppedMembers == nil) != (b.DroppedMembers == nil) || len(a.DroppedMembers) != len(b.DroppedMembers):
		return "dropped"
	}
	for i := range a.Efficiencies {
		if !same(a.Efficiencies[i], b.Efficiencies[i]) {
			return fmt.Sprintf("efficiencies[%d]", i)
		}
	}
	as, bs := a.Ledger.Splits(), b.Ledger.Splits()
	for k := range as {
		if !same(as[k].Busy, bs[k].Busy) || !same(as[k].Idle, bs[k].Idle) {
			return "ledger." + accounting.Classes()[k]
		}
	}
	return ""
}
