package runtime

import (
	"fmt"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
)

// BenchmarkKernel is the per-job comparison behind the campaign numbers:
// one jittered C1.4 job (two members, remote reads sharing a producer
// NIC) evaluated by the timeline kernel into a trace, into the summary
// the service reads, and by the engine it reproduces
// (TestKernelEqualsEngine), over a shared World, at the shallow and deep
// benchmark depths. Its seed never changes, so from the second iteration
// on every jitter stream is a seed-memo copy; table2-sweep-128steps is
// the service's pattern instead: each iteration one Table 2 sweep of
// seven placements × three seeds never used before (12 streams seeded,
// 60 copied), through the summary sink.
func BenchmarkKernel(b *testing.B) {
	p := placement.C14()
	opts := SimOptions{Jitter: 0.02, Seed: 1, World: NewWorld()}
	for _, steps := range []int{8, 128} {
		pl, err := buildPlan(cluster.Cori(3), p, SpecForPlacement(p, steps), TierDimes, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kernel-%dsteps", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := runKernel(pl, opts); !ok {
					b.Fatal("kernel declined")
				}
			}
		})
		b.Run(fmt.Sprintf("summary-%dsteps", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := summarizeKernel(pl, opts); !ok {
					b.Fatal("kernel declined")
				}
			}
		})
		b.Run(fmt.Sprintf("engine-%dsteps", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runJoint(pl, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	var plans []*simPlan
	for _, p := range placement.ConfigsTable2() {
		pl, err := buildPlan(cluster.Cori(3), p, SpecForPlacement(p, 128), TierDimes, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, pl)
	}
	b.Run("table2-sweep-128steps", func(b *testing.B) {
		b.ReportAllocs()
		world := NewWorld()
		for i := 0; i < b.N; i++ {
			for _, pl := range plans {
				for s := int64(1); s <= 3; s++ {
					sweep := SimOptions{Jitter: 0.02, Seed: int64(3*i) + s, World: world}
					if _, ok := summarizeKernel(pl, sweep); !ok {
						b.Fatal("kernel declined")
					}
				}
			}
		}
	})
}
