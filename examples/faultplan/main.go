// Faultplan: run an ensemble under a declarative fault scenario and a
// resilience policy, then assess the survivors with the paper's
// indicators.
//
// plan.json in this directory is the documented example scenario; every
// field is optional and unknown fields are rejected on load:
//
//   - "seed": drives every random draw — the same plan and seed inject
//     identical faults, so runs (and their traces) are reproducible.
//   - "staging": per-tier staging-operation failures, either a random
//     per-operation "rate" (within an optional [start,end) virtual-time
//     window) or a deterministic "failAtOp" (fail the n-th operation).
//   - "network": bandwidth-degradation windows; "factor" 0.25 scales
//     every link capacity to a quarter between "start" and "end".
//   - "crashes": node crashes — every component on "node" is interrupted
//     at virtual time "at".
//   - "stragglers": compute slowdown windows; "component" matches trace
//     names ("m0.sim", "m1.*", "*"), "factor" 1.5 = 50% slower.
//
// The same plan drives ensemblectl:
//
//	ensemblectl -config C1.5 -faults plan.json -degrade drop \
//	            -retries 3 -retry-backoff 0.05 -restarts 1
package main

import (
	"fmt"
	"log"
	"os"

	"ensemblekit"
)

func main() {
	f, err := os.Open("plan.json")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := ensemblekit.ReadFaultPlan(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// The paper's best placement on a 3-node Cori-like machine, but with
	// the fault plan injected and a recovery policy around it: transient
	// staging failures retry up to 3 times with exponential backoff, each
	// component may restart once after a crash, and members whose budget
	// runs out are dropped rather than aborting the ensemble.
	cfg := ensemblekit.ConfigC15()
	spec := ensemblekit.Cori(3)
	es := ensemblekit.SpecForPlacement(cfg, ensemblekit.PaperSteps)
	tr, err := ensemblekit.RunSimulated(spec, cfg, es, ensemblekit.SimOptions{
		Seed:   1,
		Faults: plan,
		Resilience: ensemblekit.Resilience{
			StagingRetries: 3,
			RetryBackoff:   0.05,
			RestartLimit:   1,
			RestartDelay:   1,
			Mode:           ensemblekit.DropMember,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario %q: makespan %.1f s, %d/%d members survived\n",
		plan.Name, tr.Makespan(), len(tr.SurvivingMembers()), len(tr.Members))
	for _, i := range tr.DroppedMembers() {
		fmt.Printf("  member %d dropped\n", i+1)
	}

	// Eq. 9 over the survivors only: dropped members contribute neither
	// efficiency nor resource shares.
	surviving, effs, err := ensemblekit.SurvivingEfficiencies(cfg, tr)
	if err != nil {
		log.Fatal(err)
	}
	if len(effs) == 0 {
		fmt.Println("no survivors — nothing to assess")
		return
	}
	obj, err := ensemblekit.Objective(surviving, effs, ensemblekit.StageUAP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("F(P^{U,A,P}) over survivors = %.5f\n", obj)
}
