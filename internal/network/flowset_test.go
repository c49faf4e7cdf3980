package network

import (
	"math/rand"
	"testing"

	"ensemblekit/internal/sim"
)

// A FlowSet driven by a hand-rolled clock must reproduce the Fabric on the
// engine exactly: same joins, same completion instants, bit for bit. The
// scenarios are the fabric goldens of fabric_test.go and dragonfly_test.go
// plus seeded random ones.

// xfer is one transfer of a scenario: a process that waits until start,
// then moves bytes from src to dst.
type xfer struct {
	start    float64
	src, dst int
	bytes    int64
}

// onFabric runs the scenario on the engine and returns each transfer's
// completion time.
func onFabric(t *testing.T, cfg Config, xs []xfer) []float64 {
	t.Helper()
	env := sim.NewEnv()
	fab, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]float64, len(xs))
	for i, x := range xs {
		i, x := i, x
		env.Go("x", func(p *sim.Proc) error {
			if err := p.Wait(x.start); err != nil {
				return err
			}
			if err := fab.Transfer(p, x.src, x.dst, x.bytes); err != nil {
				return err
			}
			done[i] = p.Now()
			return nil
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

// onFlowSet runs the scenario on a bare FlowSet: pending joins and the
// completion timer ordered by (time, sequence) the way the engine orders
// its events, every instant computed as now+delay.
func onFlowSet(cfg Config, xs []xfer) []float64 {
	type wake struct {
		t     float64
		seq   int
		armed bool
		joins bool // the wake-up is the join itself (latency already elapsed)
	}
	var set FlowSet
	set.Reset(cfg)
	done := make([]float64, len(xs))
	wakes := make([]wake, len(xs))
	seq := 0
	arm := func(w *wake, t float64) {
		w.t, w.seq, w.armed = t, seq, true
		seq++
	}
	for i := range xs { // process starts, in launch order
		arm(&wakes[i], 0)
	}
	started := make([]bool, len(xs))
	var timer wake
	now := 0.0
	reallocate := func() {
		timer.armed = false
		if dt, ok := set.Reallocate(1); ok {
			arm(&timer, now+dt)
		}
	}
	for {
		next, best := -2, wake{}
		pick := func(i int, w wake) {
			if w.armed && (next == -2 || w.t < best.t || (w.t == best.t && w.seq < best.seq)) {
				next, best = i, w
			}
		}
		pick(-1, timer)
		for i, w := range wakes {
			pick(i, w)
		}
		if next == -2 {
			return done
		}
		now = best.t
		if next == -1 {
			timer.armed = false
			set.Settle(now)
			for _, fl := range set.Sweep() {
				done[fl.Tag] = now
				set.Release(fl)
			}
			reallocate()
			continue
		}
		w, x := &wakes[next], xs[next]
		w.armed = false
		switch {
		case !started[next]:
			started[next] = true
			arm(w, now+x.start)
		case !w.joins:
			w.joins = true
			latency := cfg.Latency
			if topo := cfg.Topology; topo != nil && topo.groupOf(x.src) != topo.groupOf(x.dst) {
				latency += topo.GlobalLatency
			}
			if latency > 0 {
				arm(w, now+latency)
				continue
			}
			fallthrough
		default:
			if x.bytes == 0 {
				done[next] = now
				continue
			}
			set.Settle(now)
			set.Join(x.src, x.dst, float64(x.bytes)).Tag = next
			reallocate()
		}
	}
}

func TestFabricEqualsFlowSet(t *testing.T) {
	capped, late := testConfig(), testConfig()
	capped.PerFlowCap = 1e9
	late.Latency = 0.5
	type scenario struct {
		name string
		cfg  Config
		xs   []xfer
	}
	scenarios := []scenario{
		{"single", testConfig(), []xfer{{0, 0, 1, 8e9}}},
		{"latency", late, []xfer{{0, 0, 1, 8e9}, {0.1, 0, 2, 0}}},
		{"per-flow cap", capped, []xfer{{0, 0, 1, 2e9}}},
		{"egress sharing", testConfig(), []xfer{{0, 0, 1, 8e9}, {0, 0, 2, 8e9}}},
		{"ingress sharing", testConfig(), []xfer{{0, 0, 2, 8e9}, {0, 1, 2, 8e9}}},
		{"late joiner", testConfig(), []xfer{{0, 0, 1, 8e9}, {0.5, 0, 2, 4e9}}},
		{"disjoint", testConfig(), []xfer{{0, 0, 1, 8e9}, {0, 2, 3, 8e9}}},
		{"contention", testConfig(), []xfer{{0, 0, 1, 5e9}, {0.3, 0, 2, 5e9}, {0.7, 0, 1, 5e9}}},
		{"dragonfly", dragonflyConfig(), []xfer{{0, 0, 4, 8e9}, {0, 1, 5, 8e9}, {0.2, 2, 3, 8e9}, {0.4, 6, 1, 1e9}}},
	}
	many := Config{Nodes: 9, NICBandwidth: 8e9}
	var fan []xfer
	for i := 0; i < 8; i++ {
		fan = append(fan, xfer{0, 0, i + 1, 1e9})
	}
	scenarios = append(scenarios, scenario{"fair share of 8", many, fan})

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		nodes := 2 + rng.Intn(6)
		cfg := Config{Nodes: nodes, NICBandwidth: 1e8 * float64(1+rng.Intn(90))}
		if rng.Intn(2) == 0 {
			cfg.PerFlowCap = 1e8 * float64(1+rng.Intn(20))
		}
		if rng.Intn(3) == 0 {
			cfg.Latency = []float64{2e-6, 0.25}[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			cfg.Topology = &Dragonfly{GroupSize: 1 + rng.Intn(nodes), GlobalBandwidth: 1e8 * float64(1+rng.Intn(30)), GlobalLatency: 1e-5}
		}
		xs := make([]xfer, 1+rng.Intn(10))
		for i := range xs {
			src := rng.Intn(nodes)
			xs[i] = xfer{
				start: float64(rng.Intn(4)) * 0.25, // coarse, so joins coincide
				src:   src, dst: (src + 1 + rng.Intn(nodes-1)) % nodes,
				bytes: int64(rng.Intn(4)) * 5e8,
			}
		}
		scenarios = append(scenarios, scenario{"random", cfg, xs})
	}

	for i, sc := range scenarios {
		want, got := onFabric(t, sc.cfg, sc.xs), onFlowSet(sc.cfg, sc.xs)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("scenario %d (%s), transfer %d: flow set completes at %v, fabric at %v\n%+v %+v",
					i, sc.name, k, got[k], want[k], sc.cfg, sc.xs)
			}
		}
	}
}
