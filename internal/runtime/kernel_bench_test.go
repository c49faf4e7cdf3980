package runtime

import (
	"fmt"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
)

// BenchmarkKernel is the per-job comparison behind the campaign numbers:
// one jittered C1.4 job (two members, remote reads sharing a producer
// NIC) evaluated by the timeline kernel and by the engine it reproduces
// (TestKernelEqualsEngine), over a shared World, at the shallow and deep
// benchmark depths.
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
		b.Run(fmt.Sprintf("engine-%dsteps", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runJoint(pl, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
