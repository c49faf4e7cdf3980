package runtime

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
)

// keyInput is everything planKey reads.
type keyInput struct {
	Spec  cluster.Spec
	P     placement.Placement
	ES    EnsembleSpec
	Tier  string
	Slots int
}

func (in keyInput) key() ([32]byte, bool) {
	return planKey(in.Spec, in.P, in.ES, in.Tier, in.Slots)
}

// jsonPlanKey is the plan key as it was first written: the SHA-256 of
// the inputs' JSON. It is the oracle planKey's field encoding must
// partition inputs exactly as.
func jsonPlanKey(in keyInput) ([32]byte, error) {
	b, err := json.Marshal(struct {
		Spec  cluster.Spec        `json:"spec"`
		P     placement.Placement `json:"p"`
		ES    EnsembleSpec        `json:"es"`
		Tier  string              `json:"tier"`
		Slots int                 `json:"slots"`
	}{in.Spec, in.P, in.ES, in.Tier, in.Slots})
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// TestPlanKeyCoversEveryField pins the fields of every type planKey
// encodes, so a new field fails here until the key writes it.
func TestPlanKeyCoversEveryField(t *testing.T) {
	for typ, want := range map[reflect.Type]string{
		reflect.TypeOf(cluster.Spec{}): "Nodes CoresPerNode SocketsPerNode ClockHz LLCBytesPerNode " +
			"MemBytesPerNode MemBWPerNode MemCopyBW NICBandwidth NICLatency",
		reflect.TypeOf(placement.Placement{}): "Name Members",
		reflect.TypeOf(placement.Member{}):    "Simulation Analyses",
		reflect.TypeOf(placement.Component{}): "Nodes Cores",
		reflect.TypeOf(EnsembleSpec{}):        "Name Steps Members",
		reflect.TypeOf(MemberSpec{}):          "Sim Analyses",
		reflect.TypeOf(cluster.Profile{}): "Name Class InstrPerStep CPIBase ParallelFraction " +
			"WorkingSetBytes LLCRefsPerInstr BaseMissRatio BytesPerStep",
	} {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if g := strings.Join(got, " "); g != want {
			t.Errorf("%v has fields %q, planKey encodes %q: extend it", typ, g, want)
		}
	}
}

// keyInputs returns the Table 2 and Table 4 configurations with their
// ensembles, on both tiers the service prices and two staging depths.
func keyInputs() []keyInput {
	var out []keyInput
	for i, p := range append(placement.ConfigsTable2(), placement.ConfigsTable4()...) {
		in := keyInput{Spec: cluster.Cori(3), P: p, ES: SpecForPlacement(p, 8), Tier: TierDimes, Slots: 1}
		if i%3 == 1 {
			in.Tier, in.Slots, in.ES.Steps = TierBurstBuffer, 2, 37
		}
		out = append(out, in)
	}
	return out
}

// cloneInput deep-copies an input (a JSON round trip keeps -0, nil
// slices and every finite float).
func cloneInput(t *testing.T, in keyInput) keyInput {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out keyInput
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mutations calls emit once per one-field change of the value at v:
// each number ±1 (±1 ulp for floats), zero and, for floats, −0; each
// string emptied, extended, and replaced by bytes of the key's own
// encoding; a byte moved across the boundary of two adjacent strings;
// each slice made nil and made empty; each node list grown and reversed.
func mutations(v reflect.Value, path string, emit func(path string, apply func(reflect.Value))) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := path + "." + v.Type().Field(i).Name
			mutations(v.Field(i), name, func(p string, apply func(reflect.Value)) {
				emit(p, func(r reflect.Value) { apply(r.Field(i)) })
			})
			if i+1 < v.NumField() && v.Field(i).Kind() == reflect.String &&
				v.Field(i+1).Kind() == reflect.String && v.Field(i).Len() > 0 {
				emit(name+" last byte moved to the next field", func(r reflect.Value) {
					a, b := r.Field(i), r.Field(i+1)
					s := a.String()
					a.SetString(s[:len(s)-1])
					b.SetString(s[len(s)-1:] + b.String())
				})
			}
		}
	case reflect.Slice:
		if !v.IsNil() {
			emit(path+"=nil", func(r reflect.Value) { r.Set(reflect.Zero(r.Type())) })
		}
		if v.IsNil() || v.Len() > 0 {
			emit(path+"=[]", func(r reflect.Value) { r.Set(reflect.MakeSlice(r.Type(), 0, 0)) })
		}
		if v.Type().Elem().Kind() == reflect.Int {
			emit(path+"+node", func(r reflect.Value) { r.Set(reflect.Append(r, reflect.ValueOf(2))) })
			if v.Len() >= 2 {
				emit(path+" reversed", func(r reflect.Value) {
					n := r.Len()
					rev := reflect.MakeSlice(r.Type(), n, n)
					for k := 0; k < n; k++ {
						rev.Index(k).Set(r.Index(n - 1 - k))
					}
					r.Set(rev)
				})
			}
		}
		for k := 0; k < v.Len(); k++ {
			mutations(v.Index(k), fmt.Sprintf("%s[%d]", path, k), func(p string, apply func(reflect.Value)) {
				emit(p, func(r reflect.Value) { apply(r.Index(k)) })
			})
		}
	case reflect.Int, reflect.Int64:
		x := v.Int()
		for _, d := range []int64{x + 1, x - 1, 0} {
			emit(fmt.Sprintf("%s→%d", path, d), func(r reflect.Value) { r.SetInt(d) })
		}
	case reflect.Float64:
		x := v.Float()
		for _, f := range []float64{math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)), 0, math.Copysign(0, -1)} {
			emit(fmt.Sprintf("%s→%g", path, f), func(r reflect.Value) { r.SetFloat(f) })
		}
	case reflect.String:
		s := v.String()
		for _, m := range []string{"", s + "\x00", "\x04" + s, s[:len(s)/2], "\x01\x00\x01"} {
			emit(fmt.Sprintf("%s→%q", path, m), func(r reflect.Value) { r.SetString(m) })
		}
	}
}

// TestPlanKeySeparates holds planKey to the JSON key it replaced: over
// the Table 2/4 inputs and every one-field mutation of them, two inputs
// share a planKey exactly when they share a JSON key.
func TestPlanKeySeparates(t *testing.T) {
	type named struct {
		name string
		in   keyInput
	}
	var all []named
	for _, base := range keyInputs() {
		all = append(all, named{base.P.Name, base})
		mutations(reflect.ValueOf(base), base.P.Name, func(path string, apply func(reflect.Value)) {
			m := cloneInput(t, base)
			apply(reflect.ValueOf(&m).Elem())
			all = append(all, named{path, m})
		})
		// An analysis moved across the member boundary: the component
		// and workload lists are the same when flattened.
		if len(base.P.Members) >= 2 && len(base.P.Members[0].Analyses) >= 1 {
			m := cloneInput(t, base)
			last := len(m.P.Members[0].Analyses) - 1
			m.P.Members[1].Analyses = append([]placement.Component{m.P.Members[0].Analyses[last]}, m.P.Members[1].Analyses...)
			m.P.Members[0].Analyses = m.P.Members[0].Analyses[:last]
			m.ES.Members[1].Analyses = append([]cluster.Profile{m.ES.Members[0].Analyses[last]}, m.ES.Members[1].Analyses...)
			m.ES.Members[0].Analyses = m.ES.Members[0].Analyses[:last]
			all = append(all, named{base.P.Name + " analysis moved to member 1", m})
		}
	}
	byJSON := map[[32]byte][32]byte{}
	byKey := map[[32]byte][32]byte{}
	for _, n := range all {
		old, err := jsonPlanKey(n.in)
		if err != nil {
			t.Fatal(err)
		}
		key, ok := n.in.key()
		if !ok {
			t.Fatalf("%s: finite input refused", n.name)
		}
		if k, seen := byJSON[old]; seen && k != key {
			t.Errorf("%s: JSON keys agree, plan keys differ", n.name)
		}
		if o, seen := byKey[key]; seen && o != old {
			t.Errorf("%s: plan keys agree, JSON keys differ", n.name)
		}
		byJSON[old], byKey[key] = key, old
	}
	if len(byKey) < len(all)/2 {
		t.Errorf("%d distinct keys over %d inputs: the mutations do not separate", len(byKey), len(all))
	}

	// The one place the keys part ways: encoding/json writes every
	// invalid UTF-8 byte as U+FFFD, so its key gave placements named
	// "\xff" and "\xfe" one plan (and the first one's name in both
	// traces). The field encoding keeps them apart.
	a, b := keyInputs()[0], keyInputs()[0]
	a.P.Name, b.P.Name = "\xff", "\xfe"
	ja, _ := jsonPlanKey(a)
	jb, _ := jsonPlanKey(b)
	ka, _ := a.key()
	kb, _ := b.key()
	if ja != jb || ka == kb {
		t.Errorf("invalid UTF-8 names: JSON keys equal %v, plan keys equal %v; want true, false", ja == jb, ka == kb)
	}
}

// TestPlanKeyRefusesNonFinite: a NaN or infinite input has no key, as
// json.Marshal had none for it, so its run is never cached.
func TestPlanKeyRefusesNonFinite(t *testing.T) {
	for _, set := range []func(*keyInput, float64){
		func(in *keyInput, f float64) { in.Spec.ClockHz = f },
		func(in *keyInput, f float64) { in.Spec.NICLatency = f },
		func(in *keyInput, f float64) { in.ES.Members[0].Sim.CPIBase = f },
		func(in *keyInput, f float64) { in.ES.Members[1].Analyses[0].BaseMissRatio = f },
	} {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			in := cloneInput(t, keyInputs()[3])
			set(&in, f)
			if _, ok := in.key(); ok {
				t.Errorf("%v input got a key", f)
			}
			if _, err := jsonPlanKey(in); err == nil {
				t.Errorf("%v input: the JSON oracle encoded it", f)
			}
		}
	}

	w := NewWorld()
	spec := cluster.Cori(3)
	spec.ClockHz = math.NaN()
	p := placement.C15()
	for run := 0; run < 2; run++ {
		_, info, _ := RunSimulatedInfo(spec, p, SpecForPlacement(p, 4), SimOptions{World: w})
		if info.PlanReused {
			t.Errorf("run %d: a NaN ClockHz plan was reused", run)
		}
	}
	if st := w.Stats(); st.PlanHits != 0 || len(w.plans) != 0 {
		t.Errorf("NaN ClockHz: %d plan hits, %d plans held; want none", st.PlanHits, len(w.plans))
	}
}

// TestPlanKeyAllocatesNothing: a Table 2 lookup key is built on the stack.
func TestPlanKeyAllocatesNothing(t *testing.T) {
	in := keyInputs()[6]
	if n := testing.AllocsPerRun(100, func() { in.key() }); n != 0 {
		t.Errorf("planKey allocates %.0f times per call, want 0", n)
	}
}

// BenchmarkPlanKey prices one plan-cache lookup key (the largest Table 2
// placement, C1.5).
func BenchmarkPlanKey(b *testing.B) {
	in := keyInputs()[6]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.key()
	}
}
