package campaign

import (
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// pinnedSimHash pins the canonical hash of a reference spec. It guards
// the content address across refactors: a hash change silently
// invalidates every disk cache and journal in the field and breaks
// cross-version pools (peers route by hash), so it must always be a
// deliberate, reviewed decision. If this test fails, either revert the
// encoding change or update the pin in the same change that documents
// the cache-format break.
const pinnedSimHash = "70de0aae8492db02ff64a6713806c8f0f21dbe321dbdad4a2b289522222b61b3"

func pinnedSimSpec(t testing.TB) JobSpec {
	t.Helper()
	p := placement.C15()
	es := runtime.SpecForPlacement(p, 4)
	spec, err := NewJob(cluster.Cori(2), p, es, runtime.SimOptions{Seed: 42, Jitter: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestJobSpecHashStabilityPins(t *testing.T) {
	sim := pinnedSimSpec(t)
	if got, err := sim.Hash(); err != nil || got != pinnedSimHash {
		t.Errorf("simulated spec hash %s (err %v), pinned %s", got, err, pinnedSimHash)
	}
}
