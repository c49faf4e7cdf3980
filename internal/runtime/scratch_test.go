package runtime

import (
	"bytes"
	"encoding/json"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/trace"
)

// TestRunSimulatedScratch: a scratch run's trace is byte-identical to a
// plain run's; released storage serves later runs without disturbing a
// trace its reader kept (never released), and a double release is
// harmless.
func TestRunSimulatedScratch(t *testing.T) {
	spec, p := cluster.Cori(2), placement.C15()
	es := SpecForPlacement(p, 16)
	encode := func(tr *trace.EnsembleTrace) []byte {
		t.Helper()
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reference := func(seed int64) []byte {
		tr, err := RunSimulated(spec, p, es, SimOptions{Jitter: 0.02, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return encode(tr)
	}
	w := NewWorld()
	scratch := func(seed int64) (*trace.EnsembleTrace, func()) {
		tr, info, release, err := RunSimulatedScratch(spec, p, es, SimOptions{Jitter: 0.02, Seed: seed, World: w})
		if err != nil || !info.FastPath {
			t.Fatalf("seed %d: kernel served %v, err %v", seed, info.FastPath, err)
		}
		if got := encode(tr); !bytes.Equal(got, reference(seed)) {
			t.Fatalf("seed %d: scratch trace differs from a plain run's", seed)
		}
		return tr, release
	}
	kept, _ := scratch(1)
	for seed := int64(2); seed < 6; seed++ {
		_, release := scratch(seed)
		release()
		release()
	}
	if !bytes.Equal(encode(kept), reference(1)) {
		t.Fatal("a trace its reader kept was overwritten by later runs")
	}
}
