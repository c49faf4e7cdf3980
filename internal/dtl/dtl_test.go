package dtl

import (
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/network"
	"ensemblekit/internal/sim"
	"ensemblekit/internal/units"
)

func simSetup(t *testing.T, nodes int) (*sim.Env, *cluster.Model, *network.Fabric) {
	t.Helper()
	spec := cluster.Cori(nodes)
	env := sim.NewEnv()
	fab, err := network.NewFabric(env, network.Config{
		Nodes:        spec.Nodes,
		NICBandwidth: spec.NICBandwidth,
		Latency:      spec.NICLatency,
		PerFlowCap:   1.5e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, cluster.NewModel(spec), fab
}

func runOp(t *testing.T, env *sim.Env, op func(p *sim.Proc) error) (float64, error) {
	t.Helper()
	var dur float64
	var opErr error
	env.Go("op", func(p *sim.Proc) error {
		start := p.Now()
		opErr = op(p)
		dur = p.Now() - start
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return dur, opErr
}

func TestDimesWriteCost(t *testing.T) {
	env, model, fab := simSetup(t, 2)
	d := NewDimes(model, fab)
	bytes := int64(768 * units.MiB)
	want := model.SerializeTime(bytes) + model.LocalCopyTime(bytes)
	dur, err := runOp(t, env, func(p *sim.Proc) error { return d.Write(p, 0, bytes) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dur-want) > 1e-9 {
		t.Errorf("write duration = %v, want %v", dur, want)
	}
}

func TestDimesLocalReadIsCheaperThanRemote(t *testing.T) {
	bytes := int64(768 * units.MiB)

	env1, model1, fab1 := simSetup(t, 2)
	d1 := NewDimes(model1, fab1)
	local, err := runOp(t, env1, func(p *sim.Proc) error { return d1.Read(p, 0, 0, bytes) })
	if err != nil {
		t.Fatal(err)
	}

	env2, model2, fab2 := simSetup(t, 2)
	d2 := NewDimes(model2, fab2)
	remote, err := runOp(t, env2, func(p *sim.Proc) error { return d2.Read(p, 0, 1, bytes) })
	if err != nil {
		t.Fatal(err)
	}

	if remote <= local {
		t.Errorf("remote read (%v) must exceed local read (%v): DIMES locality", remote, local)
	}
	// Locality gap should be substantial (calibration: >= 2x).
	if remote < 2*local {
		t.Errorf("remote/local = %v, want >= 2", remote/local)
	}
}

func TestDimesConcurrentRemoteReadsShareBandwidth(t *testing.T) {
	// Two analyses pulling from the same producer node at once (the C1.4
	// read pattern): each remote get must take longer than an uncontended
	// one.
	bytes := int64(768 * units.MiB)

	env1, model1, fab1 := simSetup(t, 3)
	d1 := NewDimes(model1, fab1)
	aloneDur, err := runOp(t, env1, func(p *sim.Proc) error { return d1.Read(p, 0, 1, bytes) })
	if err != nil {
		t.Fatal(err)
	}

	env2, model2, fab2 := simSetup(t, 3)
	// Drop the per-flow cap so the shared NIC is the bottleneck.
	fab2b, err := network.NewFabric(env2, network.Config{
		Nodes:        3,
		NICBandwidth: 2e9,
		Latency:      model2.Spec.NICLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDimes(model2, fab2b)
	_ = fab2
	durs := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		env2.Go("reader", func(p *sim.Proc) error {
			start := p.Now()
			if err := d2.Read(p, 0, 1+i, bytes); err != nil {
				return err
			}
			durs[i] = p.Now() - start
			return nil
		})
	}
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	aloneNoCap := float64(bytes)/2e9 + model2.Spec.NICLatency + model2.DeserializeTime(bytes)
	_ = aloneDur
	for i, d := range durs {
		if d <= aloneNoCap*1.2 {
			t.Errorf("contended read %d = %v, want well above uncontended %v", i, d, aloneNoCap)
		}
	}
}

func TestBurstBufferIsPlacementAgnostic(t *testing.T) {
	bytes := int64(256 * units.MiB)
	mk := func() (*sim.Env, *BurstBuffer) {
		spec := cluster.Cori(3)
		env := sim.NewEnv()
		fab, err := network.NewFabric(env, BurstBufferFabricConfig(spec, 20e9))
		if err != nil {
			t.Fatal(err)
		}
		return env, NewBurstBuffer(cluster.NewModel(spec), fab, spec.Nodes)
	}
	env1, bb1 := mk()
	local, err := runOp(t, env1, func(p *sim.Proc) error { return bb1.Read(p, 0, 0, bytes) })
	if err != nil {
		t.Fatal(err)
	}
	env2, bb2 := mk()
	remote, err := runOp(t, env2, func(p *sim.Proc) error { return bb2.Read(p, 0, 1, bytes) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(local-remote) > 1e-9 {
		t.Errorf("burst buffer reads should not depend on placement: local %v vs remote %v", local, remote)
	}
}

func TestPFSSlowerThanDimes(t *testing.T) {
	bytes := int64(768 * units.MiB)

	env1, model1, fab1 := simSetup(t, 2)
	d := NewDimes(model1, fab1)
	var dimesTotal float64
	{
		dur, err := runOp(t, env1, func(p *sim.Proc) error {
			if err := d.Write(p, 0, bytes); err != nil {
				return err
			}
			return d.Read(p, 0, 1, bytes)
		})
		if err != nil {
			t.Fatal(err)
		}
		dimesTotal = dur
	}

	spec := cluster.Cori(2)
	env2 := sim.NewEnv()
	fabPFS, err := network.NewFabric(env2, PFSFabricConfig(spec, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	pfs := NewPFS(cluster.NewModel(spec), fabPFS, spec.Nodes, 0.01)
	pfsTotal, err := runOp(t, env2, func(p *sim.Proc) error {
		if err := pfs.Write(p, 0, bytes); err != nil {
			return err
		}
		return pfs.Read(p, 0, 1, bytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pfsTotal <= dimesTotal {
		t.Errorf("PFS staging (%v) should be slower than DIMES (%v): the in situ motivation", pfsTotal, dimesTotal)
	}
}

func TestTierNames(t *testing.T) {
	env, model, fab := simSetup(t, 2)
	_ = env
	if NewDimes(model, fab).Name() != "dimes" {
		t.Error("dimes name")
	}
	if NewBurstBuffer(model, fab, 2).Name() != "burstbuffer" {
		t.Error("burstbuffer name")
	}
	if NewPFS(model, fab, 2, 0).Name() != "pfs" {
		t.Error("pfs name")
	}
}
