// Package network models the cluster interconnect (Cray Aries on Cori) for
// remote staging transfers. Each node has finite NIC injection (egress) and
// ejection (ingress) bandwidth, each staging flow is additionally capped by
// the effective per-flow throughput of the staging protocol, and concurrent
// flows share the fabric with max-min fairness. The model is progress-based:
// whenever a flow joins or completes, the remaining bytes of every active
// flow are settled at the old rates and rates are recomputed, so emergent
// sharing (e.g., two analyses pulling from the same producer node, the C1.4
// pattern) comes out of the dynamics rather than a static formula.
//
// The arithmetic — settle, water-fill, completion sweep — lives in
// FlowSet (flowset.go); Fabric binds it to a simulation environment.
package network

import (
	"errors"
	"fmt"

	"ensemblekit/internal/obs"
	"ensemblekit/internal/sim"
)

// Config sets the fabric's capacities.
type Config struct {
	// Nodes is the number of endpoints.
	Nodes int
	// NICBandwidth is the per-node injection and ejection bandwidth in
	// bytes/s.
	NICBandwidth float64
	// Latency is the protocol latency added to every transfer in seconds.
	Latency float64
	// PerFlowCap is the maximum throughput of a single flow in bytes/s
	// (the effective staging protocol throughput); 0 means uncapped.
	PerFlowCap float64
	// NodeBandwidth optionally overrides the NIC bandwidth of individual
	// endpoints (by index). Zero entries keep NICBandwidth. This lets a
	// storage tier (burst buffer, parallel file system) be modeled as an
	// extra endpoint with its own aggregate bandwidth.
	NodeBandwidth []float64
	// Topology optionally adds dragonfly group structure: inter-group
	// flows additionally share per-group global links and pay extra
	// latency. Nil keeps the flat all-to-all fabric.
	Topology *Dragonfly
}

// bandwidthOf returns the capacity of endpoint i.
func (c Config) bandwidthOf(i int) float64 {
	if i < len(c.NodeBandwidth) && c.NodeBandwidth[i] > 0 {
		return c.NodeBandwidth[i]
	}
	return c.NICBandwidth
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return errors.New("network: Nodes must be positive")
	case c.NICBandwidth <= 0:
		return errors.New("network: NICBandwidth must be positive")
	case c.Latency < 0:
		return errors.New("network: Latency must be non-negative")
	case c.PerFlowCap < 0:
		return errors.New("network: PerFlowCap must be non-negative")
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// degradeWindow is a transient capacity-degradation interval: while
// active, every link capacity and the per-flow cap are multiplied by
// factor.
type degradeWindow struct {
	start, end, factor float64
}

// Fabric is the interconnect model bound to a simulation environment: a
// FlowSet driven by the environment's clock, with transfers parked on it
// as processes and its joins and completions on the instrumentation bus.
type Fabric struct {
	env *sim.Env
	set FlowSet
	// next is the pending earliest-completion callback.
	next sim.Timer
	// onEventFn is the bound completion callback, created once so
	// reallocate does not allocate a method value per reschedule.
	onEventFn func()
	// degrade holds transient capacity-degradation windows (fault
	// injection); boundary crossings re-settle and re-balance all flows,
	// and prune windows that have ended so capacityFactor only ever scans
	// live ones.
	degrade []degradeWindow
}

// NewFabric builds a fabric over the environment.
func NewFabric(env *sim.Env, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{env: env}
	f.set.Reset(cfg)
	f.onEventFn = f.onEvent
	return f, nil
}

// Degrade installs a transient degradation window: between virtual times
// start and end every link capacity and the per-flow protocol cap are
// scaled by factor (0 < factor <= 1). Overlapping windows compound.
// Boundary events settle in-flight transfers at the old rates and
// re-balance at the new ones, so a flow spanning a window boundary pays
// exactly the degraded rate for exactly the degraded interval. Install
// windows before Env.Run for deterministic replay.
func (f *Fabric) Degrade(start, end, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("network: degradation factor %v outside (0,1]", factor)
	}
	if end <= start {
		return fmt.Errorf("network: degradation window [%v,%v) is empty", start, end)
	}
	f.degrade = append(f.degrade, degradeWindow{start: start, end: end, factor: factor})
	rebalance := func() {
		f.pruneDegrade()
		f.set.Settle(f.env.Now())
		f.reallocate()
	}
	f.env.At(start, func() {
		if rec := f.env.Recorder(); rec.Enabled() {
			rec.Fault("fabric", "degradation", obs.NoNode, factor)
		}
		rebalance()
	})
	f.env.At(end, rebalance)
	return nil
}

// pruneDegrade drops windows that have ended. An ended window never
// contributes to capacityFactor again (t >= end fails its guard), so
// removal cannot change any rate — it only stops dead windows from being
// scanned on every reallocation for the rest of the run.
func (f *Fabric) pruneDegrade() {
	now := f.env.Now()
	w := 0
	for _, win := range f.degrade {
		if win.end > now {
			f.degrade[w] = win
			w++
		}
	}
	f.degrade = f.degrade[:w]
}

// capacityFactor is the compound degradation factor at virtual time t.
func (f *Fabric) capacityFactor(t float64) float64 {
	factor := 1.0
	for _, w := range f.degrade {
		if t >= w.start && t < w.end {
			factor *= w.factor
		}
	}
	return factor
}

// ActiveFlows returns the number of in-flight transfers.
func (f *Fabric) ActiveFlows() int { return len(f.set.flows) }

// TotalBytes returns the cumulative bytes delivered.
func (f *Fabric) TotalBytes() float64 { return f.set.totalBytes }

// Transfer moves bytes from node src to node dst, blocking the calling
// process until the transfer (including protocol latency) completes.
// Transfers between a node and itself are rejected: local staging copies
// are intra-node memory operations and are priced by the cluster model.
func (f *Fabric) Transfer(p *sim.Proc, src, dst int, bytes int64) error {
	if src == dst {
		return fmt.Errorf("network: transfer from node %d to itself (use a local copy)", src)
	}
	if src < 0 || src >= f.set.cfg.Nodes || dst < 0 || dst >= f.set.cfg.Nodes {
		return fmt.Errorf("network: endpoints %d->%d out of range [0,%d)", src, dst, f.set.cfg.Nodes)
	}
	if bytes < 0 {
		return fmt.Errorf("network: negative transfer size %d", bytes)
	}
	latency := f.set.cfg.Latency
	if t := f.set.cfg.Topology; t != nil && t.groupOf(src) != t.groupOf(dst) {
		latency += t.GlobalLatency
	}
	if latency > 0 {
		if err := p.Wait(latency); err != nil {
			return err
		}
	}
	if bytes == 0 {
		return nil
	}
	f.set.Settle(f.env.Now())
	fl := f.set.Join(src, dst, float64(bytes))
	fl.proc = p
	if rec := f.env.Recorder(); rec.Enabled() {
		fl.link = obs.LinkLabel(src, dst)
		rec.FlowStart(fl.link, src, dst, fl.size)
	}
	f.reallocate()
	// Block until the completion callback wakes us.
	if err := p.ParkOn(fl); err != nil {
		// Interrupted: remove the flow and re-balance survivors.
		f.set.Settle(f.env.Now())
		f.set.Leave(fl)
		f.flowEnd(fl)
		f.reallocate()
		f.set.Release(fl)
		return err
	}
	return nil
}

// flowEnd emits the instrumentation record for a flow leaving the fabric.
func (f *Fabric) flowEnd(fl *Flow) {
	if fl.link == "" {
		return
	}
	f.env.Recorder().FlowEnd(fl.link, fl.src, fl.dst, fl.size-fl.remaining)
}

// reallocate recomputes max-min fair rates (transient degradation scales
// every capacity; window boundaries re-settle and call back in here, so
// the factor is constant between reallocations) and schedules the next
// completion event.
func (f *Fabric) reallocate() {
	f.next.Cancel()
	f.next = sim.Timer{}
	if dt, ok := f.set.Reallocate(f.capacityFactor(f.env.Now())); ok {
		f.next = f.env.AtTimer(f.env.Now()+dt, f.onEventFn)
	}
}

// onEvent fires at the earliest projected completion: settle progress,
// complete exhausted flows, and re-balance the rest.
func (f *Fabric) onEvent() {
	f.next = sim.Timer{}
	f.set.Settle(f.env.Now())
	for _, fl := range f.set.Sweep() {
		f.flowEnd(fl)
		if !fl.done {
			fl.done = true
			fl.proc.Unpark()
			f.set.Release(fl)
		}
		// An already-done flow was interrupted at this same instant; its
		// Transfer error path owns (and releases) the record.
	}
	f.reallocate()
}
