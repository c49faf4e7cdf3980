package placement

import (
	"bytes"
	"strings"
	"testing"

	"ensemblekit/internal/cluster"
)

func TestComponentNodeSet(t *testing.T) {
	c := Component{Nodes: []int{2, 0, 2, 1, 0}, Cores: 8}
	got := c.NodeSet()
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("NodeSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeSet = %v, want %v", got, want)
		}
	}
}

func TestMemberArithmetic(t *testing.T) {
	m := member2(0, 0, 2)
	if m.K() != 2 {
		t.Errorf("K = %d, want 2", m.K())
	}
	if m.Cores() != 32 {
		t.Errorf("Cores = %d, want 32 (16+8+8)", m.Cores())
	}
	if m.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2 (nodes 0 and 2)", m.NodeCount())
	}
	u0, err := m.CouplingUnionSize(0)
	if err != nil {
		t.Fatal(err)
	}
	if u0 != 1 {
		t.Errorf("|s ∪ a^1| = %d, want 1 (co-located)", u0)
	}
	u1, err := m.CouplingUnionSize(1)
	if err != nil {
		t.Fatal(err)
	}
	if u1 != 2 {
		t.Errorf("|s ∪ a^2| = %d, want 2", u1)
	}
	if _, err := m.CouplingUnionSize(5); err == nil {
		t.Error("out-of-range coupling index should fail")
	}
}

func TestTable2Shapes(t *testing.T) {
	spec := cluster.Cori(3)
	// Expected (nodes, members) per Table 2.
	want := map[string][2]int{
		"C_f": {2, 1}, "C_c": {1, 1},
		"C1.1": {3, 2}, "C1.2": {3, 2}, "C1.3": {3, 2},
		"C1.4": {2, 2}, "C1.5": {2, 2},
	}
	configs := ConfigsTable2()
	if len(configs) != 7 {
		t.Fatalf("Table 2 has %d configs, want 7", len(configs))
	}
	for _, p := range configs {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected config %q", p.Name)
		}
		if p.M() != w[0] {
			t.Errorf("%s: M = %d, want %d", p.Name, p.M(), w[0])
		}
		if p.N() != w[1] {
			t.Errorf("%s: N = %d, want %d", p.Name, p.N(), w[1])
		}
		if err := p.Validate(spec); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	spec := cluster.Cori(3)
	want := map[string]int{
		"C2.1": 3, "C2.2": 3, "C2.3": 3, "C2.4": 3, "C2.5": 3,
		"C2.6": 2, "C2.7": 2, "C2.8": 2,
	}
	configs := ConfigsTable4()
	if len(configs) != 8 {
		t.Fatalf("Table 4 has %d configs, want 8", len(configs))
	}
	for _, p := range configs {
		if p.N() != 2 {
			t.Errorf("%s: N = %d, want 2", p.Name, p.N())
		}
		if w := want[p.Name]; p.M() != w {
			t.Errorf("%s: M = %d, want %d", p.Name, p.M(), w)
		}
		for i, m := range p.Members {
			if m.K() != 2 {
				t.Errorf("%s member %d: K = %d, want 2", p.Name, i, m.K())
			}
			if m.Cores() != 32 {
				t.Errorf("%s member %d: cores = %d, want 32", p.Name, i, m.Cores())
			}
		}
		if err := p.Validate(spec); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestPaperExampleNotation(t *testing.T) {
	// Section 4.1's worked example: C1.1 has s_1={0}, a_1^1={2}, s_2={1},
	// a_2^1={2}.
	p := C11()
	if ns := p.Members[0].Simulation.NodeSet(); len(ns) != 1 || ns[0] != 0 {
		t.Errorf("s_1 = %v, want {0}", ns)
	}
	if ns := p.Members[0].Analyses[0].NodeSet(); len(ns) != 1 || ns[0] != 2 {
		t.Errorf("a_1^1 = %v, want {2}", ns)
	}
	if ns := p.Members[1].Simulation.NodeSet(); len(ns) != 1 || ns[0] != 1 {
		t.Errorf("s_2 = %v, want {1}", ns)
	}
	if ns := p.Members[1].Analyses[0].NodeSet(); len(ns) != 1 || ns[0] != 2 {
		t.Errorf("a_2^1 = %v, want {2}", ns)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"C_f", "C_c", "C1.3", "C2.8"} {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("C9.9"); ok {
		t.Error("unknown name should not resolve")
	}
}

func TestValidateRejections(t *testing.T) {
	spec := cluster.Cori(2)
	cases := []struct {
		name string
		p    Placement
	}{
		{"empty", Placement{}},
		{"no analyses", Placement{Members: []Member{{
			Simulation: Component{Nodes: []int{0}, Cores: 16},
		}}}},
		{"no nodes", Placement{Members: []Member{{
			Simulation: Component{Cores: 16},
			Analyses:   []Component{{Nodes: []int{0}, Cores: 8}},
		}}}},
		{"zero cores", Placement{Members: []Member{{
			Simulation: Component{Nodes: []int{0}, Cores: 0},
			Analyses:   []Component{{Nodes: []int{0}, Cores: 8}},
		}}}},
		{"node out of range", Placement{Members: []Member{member1(0, 7)}}},
		{"oversubscribed", Placement{Members: []Member{
			member1(0, 0), member1(0, 0), // 48 cores on node 0
		}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(spec); err == nil {
			t.Errorf("%s: invalid placement accepted", c.name)
		}
	}
}

func TestMultiNodeComponentCoreSpreading(t *testing.T) {
	// A 40-core component across 2 nodes uses 20 cores per node: fits on
	// 32-core nodes even though 40 > 32.
	spec := cluster.Cori(2)
	p := Placement{Members: []Member{{
		Simulation: Component{Nodes: []int{0, 1}, Cores: 40},
		Analyses:   []Component{{Nodes: []int{0}, Cores: 8}},
	}}}
	if err := p.Validate(spec); err != nil {
		t.Errorf("spread component should fit: %v", err)
	}
	// 60 cores over 2 nodes = 30+8 on node 0: still fits; 64 does not.
	p.Members[0].Simulation.Cores = 52
	if err := p.Validate(spec); err == nil {
		t.Error("26+8 on node 0 fits, but 52 cores -> 26 per node; make sure capacity math runs")
	}
}

func TestCanonicalAndKey(t *testing.T) {
	// C1.5 with nodes relabeled (1,1),(0,0) is the same placement.
	a := Placement{Name: "x", Members: []Member{member1(0, 0), member1(1, 1)}}
	b := Placement{Name: "y", Members: []Member{member1(1, 1), member1(0, 0)}}
	if a.Key() != b.Key() {
		t.Errorf("relabeled placements should share a key:\n%s\n%s", a.Key(), b.Key())
	}
	// C1.4 and C1.5 differ.
	if C14().Key() == C15().Key() {
		t.Error("C1.4 and C1.5 must have distinct keys")
	}
}

func TestStringRendering(t *testing.T) {
	s := C15().String()
	for _, want := range []string{"C1.5", "members=2", "EM1", "sim@[0]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := C13()
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != orig.Key() || got.Name != orig.Name {
		t.Errorf("round trip changed placement: %v vs %v", got, orig)
	}
	if _, err := ReadJSON(strings.NewReader("nope")); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestEnumerateSmall(t *testing.T) {
	spec := cluster.Cori(2)
	got := collect(t, spec, [][]int{{16, 8}}, 2)
	// One member, sim+ana on up to 2 nodes: co-located or split — exactly
	// 2 canonical placements.
	if len(got) != 2 {
		t.Fatalf("enumerated %d placements, want 2: %v", len(got), got)
	}
	for _, p := range got {
		if err := p.Validate(spec); err != nil {
			t.Errorf("enumerated placement invalid: %v", err)
		}
	}
}

func TestEnumerateTwoMembers(t *testing.T) {
	spec := cluster.Cori(3)
	got := collect(t, spec, [][]int{{16, 8}, {16, 8}}, 3)
	if len(got) == 0 {
		t.Fatal("no placements enumerated")
	}
	// The canonical forms of C1.1-C1.5 must all appear.
	keys := make(map[string]bool, len(got))
	for _, p := range got {
		keys[p.Key()] = true
	}
	for _, want := range ConfigsTable2TwoMember() {
		if !keys[want.Key()] {
			t.Errorf("enumeration missing configuration %s", want.Name)
		}
	}
	// No duplicates up to relabeling.
	if len(keys) != len(got) {
		t.Errorf("enumeration contains duplicates: %d keys for %d placements", len(keys), len(got))
	}
	// Oversubscribed placements must be absent (two sims + two anas = 48
	// cores cannot share one node).
	for _, p := range got {
		if err := p.Validate(spec); err != nil {
			t.Errorf("invalid placement enumerated: %v", err)
		}
	}
}

func TestEnumerateValidatesShape(t *testing.T) {
	spec := cluster.Cori(2)
	bad := [][][]int{
		nil,
		{{16}},
		{{16, 8}, {}},
		{{0, 8}},
		{{16, 0}},
		{{16, 8}, {16, -8}},
	}
	for i, s := range bad {
		if err := Enumerate(spec, s, 2, func(Placement) {}); err == nil {
			t.Errorf("case %d: invalid shape accepted", i)
		}
	}
}
