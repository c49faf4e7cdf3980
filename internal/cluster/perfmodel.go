package cluster

import (
	"fmt"

	"ensemblekit/internal/trace"
)

// Interference is the calibrated pairwise co-location degradation model.
// Following the approach of the paper's citations [12] (Dauwe et al.) and
// [29] (Zacarias et al.), interference is captured as a per-pair matrix
// rather than derived from first principles: Dilation[a][b] is the
// fractional compute-time dilation a tenant of class a suffers for each
// co-located tenant of class b, and MissInflation[a][b] is the additive
// LLC miss-ratio increase. Effects accumulate over co-runners and are
// calibrated at the component sizes of the paper (16-core simulations,
// 8-core analyses on 32-core nodes).
type Interference struct {
	Dilation      map[Class]map[Class]float64
	MissInflation map[Class]map[Class]float64
	// RemoteReaderDilation is the fractional compute-time dilation every
	// tenant of a node suffers per remote staging stream served from the
	// node's memory. It models the cost of DIMES serving RDMA gets from
	// the producer's node (data locality is what makes co-location win in
	// the paper's Section 5.2 analysis).
	RemoteReaderDilation float64
	// CrossSocketFactor scales the interference between tenants on
	// disjoint sockets when the spec enables socket fidelity
	// (SocketsPerNode > 1): the last-level cache is per-socket, so only
	// the DRAM-bandwidth share of the interference remains. 1 reproduces
	// the node-level calibration; 0 makes disjoint sockets independent.
	CrossSocketFactor float64
}

// DefaultInterference returns the interference matrix calibrated to
// reproduce the qualitative shapes of the paper's Figures 3-5:
//   - analysis-analysis co-location degrades analyses most (Fig. 3-4: C1.1
//     and C1.4 slow down, miss ratios rise);
//   - simulation-simulation co-location degrades simulations (C1.2);
//   - heterogeneous co-location inflates miss ratios the most (C1.3, C1.5)
//     while costing relatively little time, so C1.5 stays fastest;
//   - remote readers perturb the producing node, which is why full
//     co-location (C1.5, C2.8) beats the co-location-free baseline.
func DefaultInterference() *Interference {
	return &Interference{
		Dilation: map[Class]map[Class]float64{
			ClassCompute: {ClassCompute: 0.07, ClassMemory: 0.02},
			ClassMemory:  {ClassCompute: 0.035, ClassMemory: 0.18},
		},
		MissInflation: map[Class]map[Class]float64{
			ClassCompute: {ClassCompute: 0.16, ClassMemory: 0.18},
			ClassMemory:  {ClassCompute: 0.25, ClassMemory: 0.17},
		},
		RemoteReaderDilation: 0.03,
		CrossSocketFactor:    0.35,
	}
}

// Model combines a hardware spec with the interference matrix and staging
// cost parameters. It produces per-stage durations and synthesized hardware
// counters for the simulated backend.
type Model struct {
	Spec Spec
	// Inter is the co-location interference matrix. Every NewModel shares
	// one default matrix: replace Inter to change it, never edit it in
	// place.
	Inter *Interference
	// SerializeBW is the chunk (de)serialization throughput in bytes/s
	// (the DTL plugin's marshaling cost, Figure 2 of the paper).
	SerializeBW float64
	// RemoteStageBW is the effective per-flow throughput of a remote
	// staging get (DIMES RDMA through the DataSpaces protocol), before
	// sharing with concurrent flows.
	RemoteStageBW float64
	// IOInstrPerByte synthesizes marshaling instructions for I/O stages so
	// that counters remain defined during W and R.
	IOInstrPerByte float64
}

// defaultInterference is the matrix NewModel's models share read-only, so
// pricing a placement does not rebuild its maps.
var defaultInterference = DefaultInterference()

// NewModel returns a model with default staging parameters for the spec.
func NewModel(spec Spec) *Model {
	return &Model{
		Spec:           spec,
		Inter:          defaultInterference,
		SerializeBW:    6e9,
		RemoteStageBW:  1.5e9,
		IOInstrPerByte: 0.5,
	}
}

// Assessment is the model's verdict for one tenant in its placement
// context: how much co-location dilates its compute stage, its effective
// LLC miss ratio, and the resulting per-step compute duration.
type Assessment struct {
	// Dilation is the compute-time multiplier (>= 1).
	Dilation float64
	// MissRatio is the effective LLC miss ratio under co-location.
	MissRatio float64
	// ComputeTime is the dilated per-step compute-stage duration.
	ComputeTime float64
}

// Assess evaluates tenant t against its co-runners on node n. It is the
// single place where co-location turns into performance: callers use the
// result to time S and A stages and to synthesize counters.
func (m *Model) Assess(n *Node, t *Tenant) (Assessment, error) {
	if t.Node != n.Index {
		return Assessment{}, fmt.Errorf("cluster: tenant %q is on node %d, not node %d", t.ID, t.Node, n.Index)
	}
	dilation := 1.0
	miss := t.Profile.BaseMissRatio
	remoteStreams := 0
	for _, other := range n.Tenants() {
		remoteStreams += other.RemoteReaders
		if other == t {
			continue
		}
		// With socket fidelity on, co-runners on disjoint sockets only
		// contend for DRAM bandwidth, not the per-socket LLC.
		weight := 1.0
		if !t.sharesSocket(other) {
			weight = m.Inter.CrossSocketFactor
		}
		dilation += weight * m.Inter.Dilation[t.Profile.Class][other.Profile.Class]
		miss += weight * m.Inter.MissInflation[t.Profile.Class][other.Profile.Class]
	}
	dilation += float64(remoteStreams) * m.Inter.RemoteReaderDilation
	if miss > 1 {
		miss = 1
	}
	alone := t.Profile.AloneComputeTime(m.Spec.ClockHz, t.Cores)
	return Assessment{
		Dilation:    dilation,
		MissRatio:   miss,
		ComputeTime: alone * dilation,
	}, nil
}

// ComputeCounters synthesizes the hardware counters of a compute stage
// consistently with the assessed duration: instructions come from the
// profile, cycles cover all allocated cores for the dilated duration
// (so dilation lowers IPC), references follow the profile rate, and misses
// follow the assessed miss ratio.
func (m *Model) ComputeCounters(t *Tenant, a Assessment) trace.Counters {
	refs := t.Profile.InstrPerStep * t.Profile.LLCRefsPerInstr
	return trace.Counters{
		Instructions: t.Profile.InstrPerStep,
		Cycles:       a.ComputeTime * m.Spec.ClockHz * float64(t.Cores),
		LLCRefs:      refs,
		LLCMisses:    refs * a.MissRatio,
	}
}

// IOCounters synthesizes counters for an I/O stage (W or R) moving the
// given number of bytes over the given duration on one core. Staged data
// streams through the cache, so references are charged per cache line with
// a high miss ratio.
func (m *Model) IOCounters(t *Tenant, bytes int64, duration float64) trace.Counters {
	const lineSize = 64
	instr := float64(bytes) * m.IOInstrPerByte
	refs := float64(bytes) / lineSize
	return trace.Counters{
		Instructions: instr,
		Cycles:       duration * m.Spec.ClockHz,
		LLCRefs:      refs,
		LLCMisses:    refs * 0.9, // streaming access: almost every line misses
		Bytes:        bytes,
	}
}

// SerializeTime returns the chunk marshaling duration for the write stage.
func (m *Model) SerializeTime(bytes int64) float64 {
	return float64(bytes) / m.SerializeBW
}

// DeserializeTime returns the chunk unmarshaling duration for the read
// stage.
func (m *Model) DeserializeTime(bytes int64) float64 {
	return float64(bytes) / m.SerializeBW
}

// LocalCopyTime returns the duration of an intra-node staging copy
// (DIMES put, or get when producer and consumer share a node).
func (m *Model) LocalCopyTime(bytes int64) float64 {
	return float64(bytes) / m.Spec.MemCopyBW
}

// RemoteGetBaseTime returns the analytic duration of an uncontended remote
// staging get: protocol latency plus transfer at the effective per-flow
// throughput. The discrete-event network fabric refines this with max-min
// fair sharing when flows overlap.
func (m *Model) RemoteGetBaseTime(bytes int64) float64 {
	bw := m.RemoteStageBW
	if bw > m.Spec.NICBandwidth {
		bw = m.Spec.NICBandwidth
	}
	return m.Spec.NICLatency + float64(bytes)/bw
}
