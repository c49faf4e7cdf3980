package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/network"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// summarySeeds returns encoded results of the current generation: a
// shallow and a deep summary, one with a dropped member, and one Execute
// returned with its trace, which the encoding leaves out.
func summarySeeds(f *testing.F) [][]byte {
	f.Helper()
	shallow, deep := table2Specs(f, false)[0], table2Specs(f, true)[0]
	withTrace, err := Execute(shallow)
	if err != nil {
		f.Fatal(err)
	}
	dropped := *withTrace
	dropped.Trace, dropped.Dropped, dropped.DroppedMembers = nil, 1, []int{1}
	dropped.Efficiencies = dropped.Efficiencies[:len(dropped.Efficiencies)-1]
	var seeds [][]byte
	for _, res := range []*Result{summaryFor(f, shallow), summaryFor(f, deep), &dropped, withTrace} {
		b, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// hasLedger reports whether a result payload carries a non-null ledger.
func hasLedger(b []byte) bool {
	var p struct {
		Ledger *json.RawMessage `json:"ledger"`
	}
	return json.Unmarshal(b, &p) == nil && p.Ledger != nil
}

// checkRoundTrip holds a decoded result to its encoding: re-encoded,
// re-decoded and encoded again, it yields the same bytes, on the wire and
// in a disk envelope.
func checkRoundTrip(t *testing.T, res *Result) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("a decoded result does not encode: %v", err)
	}
	again, err := decodeResult(b)
	if err != nil {
		t.Fatalf("an encoded result does not decode: %v\n%s", err, b)
	}
	if b2, _ := json.Marshal(again); !bytes.Equal(b2, b) {
		t.Fatalf("result does not round-trip:\n%s\n%s", b, b2)
	}
	env, err := encodeDiskEntry(res)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := decodeDiskEntry(env)
	if err != nil {
		t.Fatalf("an encoded disk entry does not decode: %v", err)
	}
	if b2, _ := json.Marshal(fromDisk); !bytes.Equal(b2, b) {
		t.Fatalf("disk entry does not round-trip:\n%s\n%s", b, b2)
	}
}

// FuzzDecodeResult feeds arbitrary peer payloads to decodeResult: it
// never panics, a payload without a ledger (the older generation, which
// carried the trace instead) is a miss, and whatever decodes round-trips.
// A summary the service encoded comes back byte for byte.
func FuzzDecodeResult(f *testing.F) {
	encoded := map[string]bool{}
	for _, b := range summarySeeds(f) {
		encoded[string(b)] = true
		f.Add(b)
	}
	f.Add([]byte(`{"hash":"x","ledger":null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := decodeResult(b)
		if err != nil {
			return
		}
		if !hasLedger(b) {
			t.Fatalf("a payload without a ledger decoded: %s", b)
		}
		checkRoundTrip(t, res)
		if again, _ := json.Marshal(res); encoded[string(b)] && !bytes.Equal(again, b) {
			t.Fatalf("summary does not round-trip:\n%s\n%s", b, again)
		}
	})
}

// FuzzDecodeDiskEntry feeds arbitrary files to decodeDiskEntry: it never
// panics, an envelope whose payload has no ledger is a miss even with a
// valid checksum, and whatever decodes round-trips.
func FuzzDecodeDiskEntry(f *testing.F) {
	for _, b := range summarySeeds(f) {
		res, err := decodeResult(b)
		if err != nil {
			f.Fatal(err)
		}
		env, err := encodeDiskEntry(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
	}
	f.Add([]byte(`{"sha256":"0000","result":{"hash":"x"}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := decodeDiskEntry(b)
		if err != nil {
			return
		}
		var env diskEnvelope
		if err := json.Unmarshal(b, &env); err != nil || !hasLedger(env.Result) {
			t.Fatalf("an entry without a ledger decoded: %s", b)
		}
		checkRoundTrip(t, res)
	})
}

// FuzzDecodeSpec feeds arbitrary spec bytes to decodeSpec, the gate for
// specs another process wrote: it never panics, a spec that decodes
// re-decodes from its canonical JSON to the same hash, and every spec it
// admits is within maxJobWork.
func FuzzDecodeSpec(f *testing.F) {
	table2 := table2Specs(f, false)[0]
	faulted := table2
	faulted.Faults = chaosSweep().FaultPlans[1]
	for _, spec := range []JobSpec{pinnedSimSpec(f), table2, faulted} {
		b, err := spec.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(withRealKey(f, pinnedSimSpec(f)))
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := decodeSpec(b)
		if err != nil {
			return
		}
		components := 0
		for _, m := range spec.Placement.Members {
			components += 1 + len(m.Analyses)
		}
		if spec.Ensemble.Steps*components > maxJobWork {
			t.Fatalf("admitted %d steps × %d components", spec.Ensemble.Steps, components)
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		canon, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical spec does not decode: %v\n%s", err, canon)
		}
		if h, _ := again.Hash(); h != hash {
			t.Fatalf("canonical spec decodes to hash %s, not %s\n%s", h, hash, canon)
		}
	})
}

// candidateCase is one candidate's seed jobs for the per-candidate hash
// differential: a paper placement (cfg indexes Tables 2 and 4), three
// seeds, and the SimConfig and fault dimensions the encoding varies with.
type candidateCase struct {
	cfg        uint8
	seeds      [3]int64
	jitter     float64
	tierBW     float64
	tier       uint8 // "", dimes, burstbuffer, pfs
	slots      int
	topology   bool
	faultPlans uint8 // none, an empty plan (erased), a straggler plan
}

func (c candidateCase) specs(t testing.TB) []JobSpec {
	t.Helper()
	configs := append(placement.ConfigsTable2(), placement.ConfigsTable4()...)
	p := configs[int(c.cfg)%len(configs)]
	sim := SimConfig{
		Tier:          []string{"", runtime.TierDimes, runtime.TierBurstBuffer, runtime.TierPFS}[c.tier%4],
		TierBandwidth: c.tierBW,
		Jitter:        c.jitter,
		StagingSlots:  c.slots,
	}
	if c.topology {
		sim.Topology = &network.Dragonfly{GroupSize: 2, GlobalBandwidth: 5e9, GlobalLatency: 1e-6}
	}
	var plan *faults.Plan
	switch c.faultPlans % 3 {
	case 1:
		plan = &faults.Plan{Name: "empty", Seed: 3, Staging: []faults.StagingFault{}}
	case 2:
		plan = chaosSweep().FaultPlans[1]
	}
	var out []JobSpec
	for _, seed := range c.seeds {
		sim.Seed = seed
		opts := sim.Options()
		opts.Faults = plan
		js, err := NewJob(cluster.Cori(1), p, runtime.SpecForPlacement(p, 8), opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, js)
	}
	return out
}

// checkCandidateHashes: specHashes over a candidate's seeds equals each
// spec's Hash and the SHA-256 of its CanonicalJSON (json.Marshal of the
// whole spec), or all three fail.
func checkCandidateHashes(t *testing.T, specs []JobSpec) {
	t.Helper()
	got, err := specHashes(specs)
	for i, spec := range specs {
		canon, cerr := spec.CanonicalJSON()
		hash, herr := spec.Hash()
		if cerr != nil {
			if err == nil || herr == nil {
				t.Fatalf("seed %d: CanonicalJSON fails (%v), specHashes err %v, Hash err %v", i, cerr, err, herr)
			}
			return
		}
		if err != nil || herr != nil {
			t.Fatalf("seed %d: specHashes err %v, Hash err %v, CanonicalJSON encodes", i, err, herr)
		}
		sum := sha256.Sum256(canon)
		if want := hex.EncodeToString(sum[:]); got[i] != want || hash != want {
			t.Fatalf("seed %d: specHashes %s, Hash %s, SHA-256 of CanonicalJSON %s\n%s", i, got[i], hash, want, canon)
		}
	}
}

var candidateCases = []struct {
	name string
	candidateCase
}{
	{"table 2 paper seeds", candidateCase{cfg: 0, seeds: [3]int64{1, 2, 3}}},
	{"seed 0 is omitted", candidateCase{cfg: 3, seeds: [3]int64{0, 1, 0}}},
	{"negative seeds", candidateCase{cfg: 5, seeds: [3]int64{-1, -7919, -1 << 40}}},
	{"int64 extremes", candidateCase{cfg: 6, seeds: [3]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1}}},
	{"jitter 0.02", candidateCase{cfg: 1, seeds: [3]int64{21, 22, 23}, jitter: 0.02}},
	{"tiny jitter", candidateCase{cfg: 2, seeds: [3]int64{1, 2, 3}, jitter: 1e-9}},
	{"burst buffer tier", candidateCase{cfg: 4, seeds: [3]int64{1, 2, 3}, tier: 2, tierBW: 1.5e21}},
	{"pfs tier", candidateCase{cfg: 8, seeds: [3]int64{1, 2, 3}, tier: 3, tierBW: 3e9}},
	{"explicit dimes tier", candidateCase{cfg: 9, seeds: [3]int64{4, 5, 6}, tier: 1}},
	{"staging slots", candidateCase{cfg: 10, seeds: [3]int64{1, 2, 3}, slots: 4}},
	{"topology", candidateCase{cfg: 11, seeds: [3]int64{1, 2, 3}, topology: true}},
	{"empty fault plan", candidateCase{cfg: 0, seeds: [3]int64{1, 2, 3}, faultPlans: 1}},
	{"fault plan", candidateCase{cfg: 7, seeds: [3]int64{1, 2, 3}, faultPlans: 2}},
	{"everything at once", candidateCase{cfg: 12, seeds: [3]int64{-3, 0, math.MaxInt64}, jitter: 0.5, tier: 2, tierBW: 2e9, slots: 2, topology: true, faultPlans: 2}},
	{"unencodable (NaN)", candidateCase{cfg: 0, seeds: [3]int64{1, 2, 3}, jitter: math.NaN()}},
	{"unencodable (+Inf)", candidateCase{cfg: 0, seeds: [3]int64{1, 2, 3}, tierBW: math.Inf(1)}},
	{"huge exponent jitter", candidateCase{cfg: 0, seeds: [3]int64{1, 2, 3}, jitter: 1e300}},
}

// TestCandidateHashTable is FuzzCandidateHash's property over named
// cases, one per dimension the canonical encoding varies with.
func TestCandidateHashTable(t *testing.T) {
	for _, c := range candidateCases {
		t.Run(c.name, func(t *testing.T) { checkCandidateHashes(t, c.specs(t)) })
	}
}

// FuzzCandidateHash is the differential for the campaign planner's
// per-candidate hashing (specHashes, which encodes the parts a
// candidate's seeds share once): over fuzzed seeds and SimConfig and
// fault dimensions it equals JobSpec.Hash and the SHA-256 of
// CanonicalJSON for every seed.
func FuzzCandidateHash(f *testing.F) {
	for _, c := range candidateCases {
		f.Add(c.cfg, c.seeds[0], c.seeds[1], c.seeds[2], c.jitter, c.tierBW, c.tier, c.slots, c.topology, c.faultPlans)
	}
	f.Fuzz(func(t *testing.T, cfg uint8, s0, s1, s2 int64, jitter, tierBW float64, tier uint8, slots int, topology bool, faultPlans uint8) {
		checkCandidateHashes(t, candidateCase{
			cfg: cfg, seeds: [3]int64{s0, s1, s2}, jitter: jitter, tierBW: tierBW,
			tier: tier, slots: slots, topology: topology, faultPlans: faultPlans,
		}.specs(t))
	})
}
