package network

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ensemblekit/internal/sim"
)

func testConfig() Config {
	return Config{Nodes: 4, NICBandwidth: 8e9, Latency: 0, PerFlowCap: 0}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Nodes: 0, NICBandwidth: 1},
		{Nodes: 1, NICBandwidth: 0},
		{Nodes: 1, NICBandwidth: 1, Latency: -1},
		{Nodes: 1, NICBandwidth: 1, PerFlowCap: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestSingleTransferDuration(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	env.Go("xfer", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 8e9); err != nil { // 8 GB at 8 GB/s
			return err
		}
		done = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-1.0) > 1e-6 {
		t.Errorf("transfer completed at %v, want 1.0", done)
	}
	if fab.ActiveFlows() != 0 {
		t.Errorf("active flows = %d, want 0", fab.ActiveFlows())
	}
	if math.Abs(fab.TotalBytes()-8e9) > 1 {
		t.Errorf("total bytes = %v, want 8e9", fab.TotalBytes())
	}
}

func TestLatencyAdded(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.Latency = 0.5
	fab, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	env.Go("xfer", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 8e9); err != nil {
			return err
		}
		done = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-1.5) > 1e-6 {
		t.Errorf("transfer with latency completed at %v, want 1.5", done)
	}
}

func TestPerFlowCap(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.PerFlowCap = 1e9
	fab, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	env.Go("xfer", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 2e9); err != nil {
			return err
		}
		done = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-2.0) > 1e-6 {
		t.Errorf("capped transfer completed at %v, want 2.0", done)
	}
}

func TestEgressSharing(t *testing.T) {
	// Two flows out of node 0 to distinct destinations share node 0's NIC:
	// each gets half the bandwidth.
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	env.Go("f1", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 8e9); err != nil {
			return err
		}
		t1 = p.Now()
		return nil
	})
	env.Go("f2", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 2, 8e9); err != nil {
			return err
		}
		t2 = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Both 8 GB flows at 4 GB/s each: 2 s.
	if math.Abs(t1-2.0) > 1e-6 || math.Abs(t2-2.0) > 1e-6 {
		t.Errorf("completions = %v, %v; want 2.0 each", t1, t2)
	}
}

func TestIngressSharing(t *testing.T) {
	// Two flows from distinct sources into node 2 share node 2's NIC —
	// the C1.1 pattern (two analyses on one node pulling from two
	// producers).
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	env.Go("f1", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 2, 8e9); err != nil {
			return err
		}
		t1 = p.Now()
		return nil
	})
	env.Go("f2", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 1, 2, 8e9); err != nil {
			return err
		}
		t2 = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-2.0) > 1e-6 || math.Abs(t2-2.0) > 1e-6 {
		t.Errorf("completions = %v, %v; want 2.0 each", t1, t2)
	}
}

func TestLateJoinerSlowsExistingFlow(t *testing.T) {
	// Flow A starts alone; at t=0.5 flow B joins the same egress link.
	// A has 4 GB left at that point, now at 4 GB/s -> finishes at 1.5.
	// B transfers 8 GB: 4 GB/s until A leaves (4 GB done at t=1.5), then
	// 8 GB/s for the remaining 4 GB -> finishes at 2.0.
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ta, tb float64
	env.Go("a", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 8e9); err != nil {
			return err
		}
		ta = p.Now()
		return nil
	})
	env.Go("b", func(p *sim.Proc) error {
		if err := p.Wait(0.5); err != nil {
			return err
		}
		if err := fab.Transfer(p, 0, 2, 8e9); err != nil {
			return err
		}
		tb = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ta-1.5) > 1e-6 {
		t.Errorf("flow A completed at %v, want 1.5", ta)
	}
	if math.Abs(tb-2.0) > 1e-6 {
		t.Errorf("flow B completed at %v, want 2.0", tb)
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	env.Go("f1", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 8e9); err != nil {
			return err
		}
		t1 = p.Now()
		return nil
	})
	env.Go("f2", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 2, 3, 8e9); err != nil {
			return err
		}
		t2 = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-1.0) > 1e-6 || math.Abs(t2-1.0) > 1e-6 {
		t.Errorf("disjoint flows completed at %v, %v; want 1.0 each", t1, t2)
	}
}

func TestSelfTransferRejected(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var xferErr error
	env.Go("x", func(p *sim.Proc) error {
		xferErr = fab.Transfer(p, 1, 1, 100)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if xferErr == nil {
		t.Fatal("self transfer should be rejected")
	}
}

func TestBadEndpointsRejected(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2, e3 error
	env.Go("x", func(p *sim.Proc) error {
		e1 = fab.Transfer(p, -1, 1, 100)
		e2 = fab.Transfer(p, 0, 99, 100)
		e3 = fab.Transfer(p, 0, 1, -5)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range []error{e1, e2, e3} {
		if e == nil {
			t.Errorf("bad transfer %d accepted", i)
		}
	}
}

func TestZeroByteTransferIsLatencyOnly(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.Latency = 0.25
	fab, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	env.Go("x", func(p *sim.Proc) error {
		if err := fab.Transfer(p, 0, 1, 0); err != nil {
			return err
		}
		done = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done-0.25) > 1e-9 {
		t.Errorf("zero-byte transfer took %v, want latency 0.25", done)
	}
}

func TestInterruptedTransferReleasesBandwidth(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var aErr error
	var tb float64
	a := env.Go("a", func(p *sim.Proc) error {
		aErr = fab.Transfer(p, 0, 1, 80e9) // would take 10 s alone
		return nil
	})
	env.Go("b", func(p *sim.Proc) error {
		if err := p.Wait(0.5); err != nil {
			return err
		}
		// Shares the link with A until A is killed at t=1.
		if err := fab.Transfer(p, 0, 2, 8e9); err != nil {
			return err
		}
		tb = p.Now()
		return nil
	})
	env.Go("killer", func(p *sim.Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		a.Interrupt("cancel transfer")
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(aErr, sim.ErrInterrupted) {
		t.Fatalf("aErr = %v, want ErrInterrupted", aErr)
	}
	// B: 0.5 s at 4 GB/s (2 GB done), then full 8 GB/s after A dies at t=1.
	// Remaining 6 GB / 8 GB/s = 0.75 -> completes at 1.75.
	if math.Abs(tb-1.75) > 1e-6 {
		t.Errorf("flow B completed at %v, want 1.75 (bandwidth must be released)", tb)
	}
	if fab.ActiveFlows() != 0 {
		t.Errorf("active flows = %d, want 0 after interrupt cleanup", fab.ActiveFlows())
	}
}

// TestInterruptAtCompletionIsHeld interrupts a transfer at the instant
// it completes, after the completion has woken its process: the transfer
// keeps its full delivery, the interrupt is held for the process's next
// wait, and the flow record (already released to the pool) is left
// alone, so the next transfer runs at full rate.
func TestInterruptAtCompletionIsHeld(t *testing.T) {
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var xferErr, waitErr error
	var doneAt, nextAt float64
	a := env.Go("a", func(p *sim.Proc) error {
		xferErr = fab.Transfer(p, 0, 1, 8e9)
		doneAt = p.Now()
		waitErr = p.Wait(1)
		return nil
	})
	env.Go("killer", func(p *sim.Proc) error {
		// Scheduled after a's completion timer for the same instant, so
		// the completion wakes a first.
		if err := p.Wait(1); err != nil {
			return err
		}
		a.Interrupt("at completion")
		if err := fab.Transfer(p, 0, 2, 8e9); err != nil {
			return err
		}
		nextAt = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if xferErr != nil || doneAt != 1 {
		t.Fatalf("transfer = %v at t=%v, want nil at t=1", xferErr, doneAt)
	}
	if !errors.Is(waitErr, sim.ErrInterrupted) {
		t.Errorf("next wait = %v, want the held interrupt", waitErr)
	}
	if math.Abs(nextAt-2) > 1e-9 {
		t.Errorf("next transfer done at %v, want 2 (full rate, no stale flow)", nextAt)
	}
	if got := fab.TotalBytes(); got != 16e9 {
		t.Errorf("TotalBytes = %v, want 16e9", got)
	}
}

func TestInterruptedTransferTotalBytes(t *testing.T) {
	// Byte-conservation regression for the interrupt path: an interrupted
	// flow must contribute exactly the bytes it delivered before the
	// interrupt — not its full size, and not zero. Same timeline as
	// TestInterruptedTransferReleasesBandwidth: A runs alone at 8 GB/s for
	// 0.5 s (4 GB), shares at 4 GB/s for 0.5 s (+2 GB), and is killed at
	// t=1 with 6 GB delivered; B delivers its full 8 GB.
	env := sim.NewEnv()
	fab, err := NewFabric(env, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := env.Go("a", func(p *sim.Proc) error {
		err := fab.Transfer(p, 0, 1, 80e9)
		if !errors.Is(err, sim.ErrInterrupted) {
			t.Errorf("transfer A: %v, want ErrInterrupted", err)
		}
		return nil
	})
	env.Go("b", func(p *sim.Proc) error {
		if err := p.Wait(0.5); err != nil {
			return err
		}
		return fab.Transfer(p, 0, 2, 8e9)
	})
	env.Go("killer", func(p *sim.Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		a.Interrupt("cancel transfer")
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	const want = 6e9 + 8e9
	if got := fab.TotalBytes(); math.Abs(got-want) > 1 {
		t.Errorf("TotalBytes = %v, want %v (interrupted flow must count partial delivery only)", got, want)
	}
}

func TestManyFlowsFairShareConservation(t *testing.T) {
	// N flows through one egress link: each gets BW/N; all complete
	// simultaneously; aggregate equals link capacity.
	const n = 8
	env := sim.NewEnv()
	cfg := Config{Nodes: n + 1, NICBandwidth: 8e9}
	fab, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		env.Go("f", func(p *sim.Proc) error {
			if err := fab.Transfer(p, 0, i+1, 1e9); err != nil {
				return err
			}
			done[i] = p.Now()
			return nil
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(n) * 1e9 / 8e9 // n GB aggregate at 8 GB/s
	for i, d := range done {
		if math.Abs(d-want) > 1e-6 {
			t.Errorf("flow %d completed at %v, want %v", i, d, want)
		}
	}
}

func TestDeterministicUnderContention(t *testing.T) {
	run := func() []float64 {
		env := sim.NewEnv()
		fab, err := NewFabric(env, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 3)
		starts := []float64{0, 0.3, 0.7}
		for i := 0; i < 3; i++ {
			i := i
			env.Go("f", func(p *sim.Proc) error {
				if err := p.Wait(starts[i]); err != nil {
					return err
				}
				if err := fab.Transfer(p, 0, 1+i%3, 5e9); err != nil {
					return err
				}
				out[i] = p.Now()
				return nil
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic completion times: %v vs %v", got, first)
			}
		}
	}
}

// Property: for random flow sets the max-min allocation never exceeds any
// link capacity or the per-flow cap, and every flow gets a positive rate.
func TestAssignRatesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		nodes := 2 + rng.Intn(6)
		cfg := Config{
			Nodes:        nodes,
			NICBandwidth: 1e9 * float64(1+rng.Intn(10)),
		}
		if rng.Intn(2) == 0 {
			cfg.PerFlowCap = 1e8 * float64(1+rng.Intn(20))
		}
		if rng.Intn(2) == 0 && nodes >= 2 {
			cfg.Topology = &Dragonfly{
				GroupSize:       1 + rng.Intn(nodes),
				GlobalBandwidth: 1e8 * float64(1+rng.Intn(30)),
			}
		}
		var fab FlowSet
		fab.Reset(cfg)
		nFlows := 1 + rng.Intn(12)
		for f := 0; f < nFlows; f++ {
			src := rng.Intn(nodes)
			dst := (src + 1 + rng.Intn(nodes-1)) % nodes
			fab.Join(src, dst, 1e9)
		}
		fab.assignRates(1)
		// Per-flow constraints.
		egUsed := make([]float64, nodes)
		inUsed := make([]float64, nodes)
		for _, fl := range fab.flows {
			if fl.rate <= 0 {
				t.Fatalf("trial %d: flow got non-positive rate %v", trial, fl.rate)
			}
			if cfg.PerFlowCap > 0 && fl.rate > cfg.PerFlowCap*(1+1e-9) {
				t.Fatalf("trial %d: rate %v exceeds per-flow cap %v", trial, fl.rate, cfg.PerFlowCap)
			}
			egUsed[fl.src] += fl.rate
			inUsed[fl.dst] += fl.rate
		}
		for n := 0; n < nodes; n++ {
			if egUsed[n] > cfg.NICBandwidth*(1+1e-6) {
				t.Fatalf("trial %d: egress %d oversubscribed: %v > %v", trial, n, egUsed[n], cfg.NICBandwidth)
			}
			if inUsed[n] > cfg.NICBandwidth*(1+1e-6) {
				t.Fatalf("trial %d: ingress %d oversubscribed: %v > %v", trial, n, inUsed[n], cfg.NICBandwidth)
			}
		}
		// Global-link constraints.
		if topo := cfg.Topology; topo != nil {
			groups := topo.groups(nodes)
			up := make([]float64, groups)
			down := make([]float64, groups)
			for _, fl := range fab.flows {
				gs, gd := topo.groupOf(fl.src), topo.groupOf(fl.dst)
				if gs != gd {
					up[gs] += fl.rate
					down[gd] += fl.rate
				}
			}
			for g := 0; g < groups; g++ {
				if up[g] > topo.GlobalBandwidth*(1+1e-6) || down[g] > topo.GlobalBandwidth*(1+1e-6) {
					t.Fatalf("trial %d: global link %d oversubscribed: up %v down %v cap %v",
						trial, g, up[g], down[g], topo.GlobalBandwidth)
				}
			}
		}
	}
}
