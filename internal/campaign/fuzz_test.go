package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
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
