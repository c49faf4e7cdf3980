package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ensemblekit/internal/units"
)

func computeProfile() Profile {
	return Profile{
		Name:             "sim",
		Class:            ClassCompute,
		InstrPerStep:     6.4e11,
		CPIBase:          0.5,
		ParallelFraction: 0.99,
		WorkingSetBytes:  60 * units.MiB,
		LLCRefsPerInstr:  0.002,
		BaseMissRatio:    0.05,
		BytesPerStep:     768 * units.MiB,
	}
}

func memoryProfile() Profile {
	return Profile{
		Name:             "ana",
		Class:            ClassMemory,
		InstrPerStep:     1.0e11,
		CPIBase:          1.0,
		ParallelFraction: 0.9,
		WorkingSetBytes:  50 * units.MiB,
		LLCRefsPerInstr:  0.02,
		BaseMissRatio:    0.15,
		BytesPerStep:     768 * units.MiB,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := Cori(4).Validate(); err != nil {
		t.Fatalf("Cori spec invalid: %v", err)
	}
	bad := Cori(4)
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes should be invalid")
	}
	bad = Cori(4)
	bad.ClockHz = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative clock should be invalid")
	}
	if got := Cori(4).TotalCores(); got != 128 {
		t.Errorf("TotalCores = %d, want 128", got)
	}
	if !strings.Contains(Cori(2).String(), "2 nodes") {
		t.Errorf("String() = %q", Cori(2).String())
	}
}

func TestProfileValidate(t *testing.T) {
	if err := computeProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Class = "weird" },
		func(p *Profile) { p.InstrPerStep = 0 },
		func(p *Profile) { p.CPIBase = 0 },
		func(p *Profile) { p.ParallelFraction = 1 },
		func(p *Profile) { p.ParallelFraction = -0.1 },
		func(p *Profile) { p.BaseMissRatio = 1.5 },
		func(p *Profile) { p.BytesPerStep = -1 },
	}
	for i, mutate := range cases {
		p := computeProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestAmdahlSpeedup(t *testing.T) {
	p := computeProfile() // f = 0.99
	if got := p.Speedup(1); got != 1 {
		t.Errorf("Speedup(1) = %v, want 1", got)
	}
	want16 := 1 / (0.01 + 0.99/16)
	if got := p.Speedup(16); math.Abs(got-want16) > 1e-9 {
		t.Errorf("Speedup(16) = %v, want %v", got, want16)
	}
	// Monotone non-decreasing, bounded by 1/(1-f).
	prev := 0.0
	for c := 1; c <= 64; c++ {
		s := p.Speedup(c)
		if s < prev {
			t.Fatalf("speedup not monotone at %d cores: %v < %v", c, s, prev)
		}
		if s > 1/(1-p.ParallelFraction)+1e-9 {
			t.Fatalf("speedup exceeds Amdahl bound at %d cores: %v", c, s)
		}
		prev = s
	}
}

func TestAloneComputeTimeCalibration(t *testing.T) {
	spec := Cori(1)
	// The MD proxy profile is calibrated so a 16-core simulation step takes
	// about 10 s (Section 2.2 scale).
	simT := computeProfile().AloneComputeTime(spec.ClockHz, 16)
	if simT < 8 || simT > 12 {
		t.Errorf("16-core simulation step = %vs, want ~10s", simT)
	}
	// More cores, less time.
	if t32 := computeProfile().AloneComputeTime(spec.ClockHz, 32); t32 >= simT {
		t.Errorf("32-core step (%v) should be faster than 16-core (%v)", t32, simT)
	}
	if zero := computeProfile().AloneComputeTime(spec.ClockHz, 0); zero != 0 {
		t.Errorf("0 cores should give 0 time, got %v", zero)
	}
}

func TestMachineAllocation(t *testing.T) {
	m, err := NewMachine(Cori(2))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := m.Allocate("sim0", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Node != 0 || sim.Cores != 16 {
		t.Errorf("unexpected tenant: %+v", sim)
	}
	n0, _ := m.Node(0)
	if n0.UsedCores() != 16 || n0.FreeCores() != 16 {
		t.Errorf("node 0 used=%d free=%d, want 16/16", n0.UsedCores(), n0.FreeCores())
	}
	if _, err := m.Allocate("ana0", 0, 8, memoryProfile()); err != nil {
		t.Fatal(err)
	}
	if n0.UsedCores() != 24 {
		t.Errorf("used = %d, want 24", n0.UsedCores())
	}
	// Oversubscription rejected.
	if _, err := m.Allocate("big", 0, 9, memoryProfile()); err == nil {
		t.Error("allocating 9 cores with 8 free should fail")
	}
	// Duplicate ID rejected.
	if _, err := m.Allocate("sim0", 1, 1, computeProfile()); err == nil {
		t.Error("duplicate tenant ID should fail")
	}
	// Bad node index rejected.
	if _, err := m.Allocate("x", 5, 1, computeProfile()); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, ok := m.Tenant("sim0"); !ok {
		t.Error("sim0 should be retrievable")
	}
	used := m.UsedNodes()
	if len(used) != 1 || used[0] != 0 {
		t.Errorf("UsedNodes = %v, want [0]", used)
	}
}

func TestMachineMemoryAdmission(t *testing.T) {
	spec := Cori(1)
	spec.MemBytesPerNode = 100 * units.MiB
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("a", 0, 8, memoryProfile()); err != nil { // 50 MiB
		t.Fatal(err)
	}
	if _, err := m.Allocate("b", 0, 8, memoryProfile()); err != nil { // 100 MiB total
		t.Fatal(err)
	}
	if _, err := m.Allocate("c", 0, 8, memoryProfile()); err == nil {
		t.Error("working sets beyond node memory should be rejected")
	}
}

func TestAssessAlone(t *testing.T) {
	spec := Cori(1)
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(spec)
	sim, err := m.Allocate("sim", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := m.Node(0)
	a, err := model.Assess(n0, sim)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dilation != 1 {
		t.Errorf("alone dilation = %v, want 1", a.Dilation)
	}
	if a.MissRatio != computeProfile().BaseMissRatio {
		t.Errorf("alone miss ratio = %v, want base %v", a.MissRatio, computeProfile().BaseMissRatio)
	}
	alone := computeProfile().AloneComputeTime(spec.ClockHz, 16)
	if math.Abs(a.ComputeTime-alone) > 1e-9 {
		t.Errorf("alone compute time = %v, want %v", a.ComputeTime, alone)
	}
}

func TestAssessCoLocationShapes(t *testing.T) {
	// The calibrated matrix must reproduce the paper's Figure 3 orderings.
	spec := Cori(4)
	model := NewModel(spec)

	assess := func(build func(m *Machine)) map[string]Assessment {
		m, err := NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		build(m)
		out := make(map[string]Assessment)
		for _, n := range m.Nodes() {
			for _, tn := range n.Tenants() {
				a, err := model.Assess(n, tn)
				if err != nil {
					t.Fatal(err)
				}
				out[tn.ID] = a
			}
		}
		return out
	}

	mustAlloc := func(m *Machine, id string, node, cores int, p Profile) {
		t.Helper()
		if _, err := m.Allocate(id, node, cores, p); err != nil {
			t.Fatal(err)
		}
	}

	// Homogeneous analysis co-location (the C1.1/C1.4 pattern).
	anaPair := assess(func(m *Machine) {
		mustAlloc(m, "a1", 0, 8, memoryProfile())
		mustAlloc(m, "a2", 0, 8, memoryProfile())
	})
	// Homogeneous simulation co-location (the C1.2 pattern).
	simPair := assess(func(m *Machine) {
		mustAlloc(m, "s1", 0, 16, computeProfile())
		mustAlloc(m, "s2", 0, 16, computeProfile())
	})
	// Heterogeneous co-location (the C_c/C1.5 pattern).
	hetero := assess(func(m *Machine) {
		mustAlloc(m, "s", 0, 16, computeProfile())
		mustAlloc(m, "a", 0, 8, memoryProfile())
	})

	baseA := memoryProfile().BaseMissRatio
	baseS := computeProfile().BaseMissRatio

	// Fig. 3: all co-locations raise miss ratios above the alone baseline.
	if anaPair["a1"].MissRatio <= baseA {
		t.Error("co-located analyses should have elevated miss ratio")
	}
	if simPair["s1"].MissRatio <= baseS {
		t.Error("co-located simulations should have elevated miss ratio")
	}
	// Fig. 3: heterogeneous co-location inflates miss ratios more than
	// homogeneous co-location does (C1.3/C1.5 vs C1.1/C1.2/C1.4).
	if hetero["a"].MissRatio <= anaPair["a1"].MissRatio {
		t.Errorf("analysis miss ratio: hetero %v should exceed homo %v",
			hetero["a"].MissRatio, anaPair["a1"].MissRatio)
	}
	if hetero["s"].MissRatio <= baseS {
		t.Error("simulation miss ratio should rise under heterogeneous co-location")
	}
	// Fig. 4 mechanism: analysis-analysis dilation dominates all other
	// pairings; heterogeneous dilation is mild.
	if anaPair["a1"].Dilation <= hetero["a"].Dilation {
		t.Errorf("analysis dilation: homo %v should exceed hetero %v",
			anaPair["a1"].Dilation, hetero["a"].Dilation)
	}
	if hetero["s"].Dilation >= simPair["s1"].Dilation {
		t.Errorf("simulation dilation: hetero %v should be below homo %v",
			hetero["s"].Dilation, simPair["s1"].Dilation)
	}
}

func TestRemoteReaderPerturbation(t *testing.T) {
	spec := Cori(2)
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(spec)
	sim, err := m.Allocate("sim", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := m.Node(0)
	alone, err := model.Assess(n0, sim)
	if err != nil {
		t.Fatal(err)
	}
	sim.RemoteReaders = 2
	perturbed, err := model.Assess(n0, sim)
	if err != nil {
		t.Fatal(err)
	}
	wantDil := 1 + 2*model.Inter.RemoteReaderDilation
	if math.Abs(perturbed.Dilation-wantDil) > 1e-9 {
		t.Errorf("dilation with 2 remote readers = %v, want %v", perturbed.Dilation, wantDil)
	}
	if perturbed.ComputeTime <= alone.ComputeTime {
		t.Error("remote readers must slow the producer's compute stage")
	}
}

func TestAssessWrongNode(t *testing.T) {
	spec := Cori(2)
	m, _ := NewMachine(spec)
	model := NewModel(spec)
	sim, err := m.Allocate("sim", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := m.Node(1)
	if _, err := model.Assess(n1, sim); err == nil {
		t.Error("assessing a tenant against the wrong node should fail")
	}
}

func TestCountersConsistency(t *testing.T) {
	spec := Cori(1)
	m, _ := NewMachine(spec)
	model := NewModel(spec)
	sim, err := m.Allocate("sim", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := m.Node(0)
	a, err := model.Assess(n0, sim)
	if err != nil {
		t.Fatal(err)
	}
	c := model.ComputeCounters(sim, a)
	if c.Instructions != computeProfile().InstrPerStep {
		t.Errorf("instructions = %v, want profile value", c.Instructions)
	}
	// IPC = instr/cycles must drop when dilation rises.
	ipcAlone := c.Instructions / c.Cycles
	sim.RemoteReaders = 3
	a2, _ := model.Assess(n0, sim)
	c2 := model.ComputeCounters(sim, a2)
	ipcPerturbed := c2.Instructions / c2.Cycles
	if ipcPerturbed >= ipcAlone {
		t.Errorf("IPC should drop under perturbation: %v -> %v", ipcAlone, ipcPerturbed)
	}
	// Misses follow the assessed ratio.
	if math.Abs(c.LLCMisses/c.LLCRefs-a.MissRatio) > 1e-9 {
		t.Errorf("miss ratio from counters = %v, want %v", c.LLCMisses/c.LLCRefs, a.MissRatio)
	}
}

func TestIOCounters(t *testing.T) {
	model := NewModel(Cori(1))
	tn := &Tenant{ID: "x", Cores: 8, Profile: memoryProfile()}
	c := model.IOCounters(tn, 64*1024, 0.01)
	if c.Bytes != 64*1024 {
		t.Errorf("bytes = %d, want 65536", c.Bytes)
	}
	if c.LLCRefs != 1024 {
		t.Errorf("refs = %v, want 1024 (one per 64B line)", c.LLCRefs)
	}
	if c.LLCMisses <= 0 || c.LLCMisses > c.LLCRefs {
		t.Errorf("misses = %v out of range", c.LLCMisses)
	}
}

func TestStagingTimes(t *testing.T) {
	model := NewModel(Cori(1))
	bytes := int64(768 * units.MiB)
	w := model.SerializeTime(bytes) + model.LocalCopyTime(bytes)
	rLocal := model.LocalCopyTime(bytes) + model.DeserializeTime(bytes)
	rRemote := model.RemoteGetBaseTime(bytes) + model.DeserializeTime(bytes)
	if w <= 0 || rLocal <= 0 {
		t.Fatal("staging times must be positive")
	}
	// DIMES locality: a remote get is substantially more expensive than a
	// local one.
	if rRemote < 2*rLocal {
		t.Errorf("remote read (%v) should cost at least 2x local read (%v)", rRemote, rLocal)
	}
	// And all staging is small relative to a ~10 s compute stage.
	if w > 2 || rRemote > 2 {
		t.Errorf("staging times unexpectedly large: W=%v Rremote=%v", w, rRemote)
	}
}

// Property: dilation and miss ratio never fall below the alone baseline,
// and miss ratio never exceeds 1, regardless of the co-runner mix.
func TestAssessmentBoundsProperty(t *testing.T) {
	spec := Cori(1)
	model := NewModel(spec)
	prop := func(nAna, nSim uint8, remote uint8) bool {
		m, err := NewMachine(spec)
		if err != nil {
			return false
		}
		sim, err := m.Allocate("subject", 0, 4, computeProfile())
		if err != nil {
			return false
		}
		sim.RemoteReaders = int(remote % 8)
		for i := 0; i < int(nAna%3); i++ {
			if _, err := m.Allocate(fmt2("a", i), 0, 2, memoryProfile()); err != nil {
				return true // node full: nothing to check
			}
		}
		for i := 0; i < int(nSim%3); i++ {
			if _, err := m.Allocate(fmt2("s", i), 0, 2, computeProfile()); err != nil {
				return true
			}
		}
		n0, _ := m.Node(0)
		for _, tn := range n0.Tenants() {
			a, err := model.Assess(n0, tn)
			if err != nil {
				return false
			}
			if a.Dilation < 1 || a.MissRatio < tn.Profile.BaseMissRatio-1e-12 || a.MissRatio > 1 {
				return false
			}
			if a.ComputeTime < tn.Profile.AloneComputeTime(spec.ClockHz, tn.Cores)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func fmt2(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestReserveStaging(t *testing.T) {
	spec := Cori(1)
	spec.MemBytesPerNode = 200 * units.MiB
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("sim", 0, 16, computeProfile()); err != nil { // 60 MiB ws
		t.Fatal(err)
	}
	if err := m.ReserveStaging("sim", 100*units.MiB); err != nil {
		t.Fatalf("160 MiB total should fit in 200 MiB: %v", err)
	}
	if err := m.ReserveStaging("sim", 150*units.MiB); err == nil {
		t.Error("210 MiB total should overflow 200 MiB")
	}
	// The accepted reservation counts against later allocations.
	if _, err := m.Allocate("ana", 0, 8, memoryProfile()); err == nil { // +50 MiB
		t.Error("allocation on top of the reservation should overflow")
	}
	if err := m.ReserveStaging("ghost", 1); err == nil {
		t.Error("unknown tenant should fail")
	}
	if err := m.ReserveStaging("sim", -1); err == nil {
		t.Error("negative reservation should fail")
	}
}

func dualSocketSpec() Spec {
	spec := Cori(1)
	spec.SocketsPerNode = 2 // opt-in socket fidelity
	return spec
}

func TestSocketValidation(t *testing.T) {
	spec := dualSocketSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("dual-socket spec invalid: %v", err)
	}
	spec.SocketsPerNode = 3 // 32 not divisible by 3
	if err := spec.Validate(); err == nil {
		t.Error("indivisible socket split should be rejected")
	}
	spec.SocketsPerNode = -1
	if err := spec.Validate(); err == nil {
		t.Error("negative sockets should be rejected")
	}
}

func TestSocketAssignment(t *testing.T) {
	m, err := NewMachine(dualSocketSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A 16-core simulation fills one socket exactly.
	sim, err := m.Allocate("sim", 0, 16, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Sockets) != 1 {
		t.Fatalf("16-core tenant should sit on one socket, got %v", sim.Sockets)
	}
	// An 8-core analysis lands on the other socket (tightest fit is the
	// empty one since socket 0 is full).
	ana, err := m.Allocate("ana", 0, 8, memoryProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(ana.Sockets) != 1 || ana.Sockets[0] == sim.Sockets[0] {
		t.Fatalf("analysis should take the free socket: sim %v ana %v", sim.Sockets, ana.Sockets)
	}
	if sim.sharesSocket(ana) {
		t.Error("disjoint sockets should not count as sharing")
	}
	// A 12-core tenant must span: 8 free on ana's socket only -> spans.
	span, err := m.Allocate("span", 0, 8, memoryProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !span.sharesSocket(ana) {
		t.Error("tenants on the same socket should share")
	}
}

func TestSocketSpanning(t *testing.T) {
	m, err := NewMachine(dualSocketSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate("a", 0, 8, memoryProfile()); err != nil {
		t.Fatal(err)
	}
	// 24 cores left: 8 on one socket, 16 on the other — a 20-core tenant
	// must span both.
	sp, err := m.Allocate("span", 0, 20, computeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Sockets) != 2 {
		t.Fatalf("20-core tenant should span 2 sockets, got %v", sp.Sockets)
	}
	// The socket books agree with the node's: the span took exactly 20
	// cores across the two sockets.
	n0, err := m.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	free := 0
	for _, f := range n0.socketFree {
		free += f
	}
	if free != n0.FreeCores() || free != 4 {
		t.Errorf("sockets hold %d free cores, node %d, want 4", free, n0.FreeCores())
	}
}

func TestCrossSocketInterferenceReduced(t *testing.T) {
	// The same sim+ana pairing interferes less across sockets than within
	// a node-level (socket-blind) model.
	assess := func(spec Spec) (simA, anaA Assessment) {
		m, err := NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		model := NewModel(spec)
		sim, err := m.Allocate("sim", 0, 16, computeProfile())
		if err != nil {
			t.Fatal(err)
		}
		ana, err := m.Allocate("ana", 0, 8, memoryProfile())
		if err != nil {
			t.Fatal(err)
		}
		n0, _ := m.Node(0)
		simA, err = model.Assess(n0, sim)
		if err != nil {
			t.Fatal(err)
		}
		anaA, err = model.Assess(n0, ana)
		if err != nil {
			t.Fatal(err)
		}
		return simA, anaA
	}
	simFlat, anaFlat := assess(Cori(1))
	simSock, anaSock := assess(dualSocketSpec())
	if !(simSock.Dilation < simFlat.Dilation && anaSock.Dilation < anaFlat.Dilation) {
		t.Errorf("cross-socket placement should reduce dilation: sim %v->%v ana %v->%v",
			simFlat.Dilation, simSock.Dilation, anaFlat.Dilation, anaSock.Dilation)
	}
	if !(anaSock.MissRatio < anaFlat.MissRatio) {
		t.Errorf("cross-socket placement should reduce miss inflation: %v vs %v",
			anaSock.MissRatio, anaFlat.MissRatio)
	}
	// But the interference does not vanish: DRAM bandwidth stays shared.
	if anaSock.Dilation <= 1 {
		t.Error("cross-socket interference should remain above 1")
	}
}
