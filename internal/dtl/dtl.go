// Package dtl implements the paper's Data Transport Layer (Figure 2): the
// staging substrate between simulations and analyses. Three tiers are
// provided, mirroring the storage options the paper lists — in-memory
// staging in the style of DIMES (data kept in the producer node's memory,
// served over the network to remote readers), burst buffers, and a parallel
// file system. All tiers implement the same interface, which is the point
// of the DTL plugin architecture: ensemble components are tier-agnostic.
//
// The tiers price staging operations for the simulated backend (durations
// elapse on the simulation clock): a staged chunk is its byte count, not
// marshaled data.
package dtl

import (
	"fmt"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/network"
	"ensemblekit/internal/sim"
)

// putSpan opens a put-begin event on the caller's recorder and returns the
// closer. The closer is invoked on error paths too, so every PutBegin has a
// matching PutEnd stamped at the time the operation actually stopped.
func putSpan(p *sim.Proc, tier string, node int, bytes int64) func() {
	r := p.Env().Recorder()
	if !r.Enabled() {
		return func() {}
	}
	r.PutBegin(tier, node, bytes)
	return func() { r.PutEnd(tier, node, bytes) }
}

// getSpan is the read-side counterpart of putSpan.
func getSpan(p *sim.Proc, tier string, producerNode, consumerNode int, bytes int64) func() {
	r := p.Env().Recorder()
	if !r.Enabled() {
		return func() {}
	}
	r.GetBegin(tier, producerNode, consumerNode, bytes)
	return func() { r.GetEnd(tier, producerNode, consumerNode, bytes) }
}

// Tier prices staging operations for the simulated backend. Write and Read
// block the calling simulation process for the duration of the staging
// operation, including any contention with concurrent staging traffic.
type Tier interface {
	// Name identifies the tier in traces and reports.
	Name() string
	// Write stages an encoded chunk of the given size out of a producer on
	// the given node (the W stage cost, excluding synchronization waits).
	Write(p *sim.Proc, producerNode int, bytes int64) error
	// Read stages an encoded chunk of the given size into a consumer on
	// consumerNode from a producer on producerNode (the R stage cost,
	// excluding waits for data availability).
	Read(p *sim.Proc, producerNode, consumerNode int, bytes int64) error
}

// Dimes is the in-memory staging tier modeled after DIMES: a put is a local
// serialize-and-copy on the producer node; a get is a local copy when the
// consumer shares the node, and a fabric transfer (latency plus shared
// bandwidth) otherwise. This asymmetry is the data-locality property the
// paper's Section 5.2 credits for the win of co-located placements.
type Dimes struct {
	model  *cluster.Model
	fabric *network.Fabric
}

// NewDimes builds the DIMES tier over a cluster model and a network fabric.
func NewDimes(model *cluster.Model, fabric *network.Fabric) *Dimes {
	return &Dimes{model: model, fabric: fabric}
}

// Name implements Tier.
func (d *Dimes) Name() string { return "dimes" }

// Write implements Tier: serialize plus an intra-node staging copy.
func (d *Dimes) Write(p *sim.Proc, producerNode int, bytes int64) error {
	defer putSpan(p, d.Name(), producerNode, bytes)()
	dur := d.model.SerializeTime(bytes) + d.model.LocalCopyTime(bytes)
	return p.Wait(dur)
}

// Read implements Tier: local copy when co-located, fabric transfer when
// remote, plus deserialization either way.
func (d *Dimes) Read(p *sim.Proc, producerNode, consumerNode int, bytes int64) error {
	defer getSpan(p, d.Name(), producerNode, consumerNode, bytes)()
	if producerNode == consumerNode {
		// Copy and deserialize are consecutive model delays with nothing
		// observable between them, so they elapse as a single event — the
		// same coalescing Write applies to serialize+copy. Same end time,
		// one fewer goroutine crossing per co-located read.
		return p.Wait(d.model.LocalCopyTime(bytes) + d.model.DeserializeTime(bytes))
	}
	if err := d.fabric.Transfer(p, producerNode, consumerNode, bytes); err != nil {
		return fmt.Errorf("dtl: dimes remote get: %w", err)
	}
	return p.Wait(d.model.DeserializeTime(bytes))
}

// BurstBuffer is an intermediate storage tier: all puts and gets traverse
// the burst buffer's aggregate bandwidth regardless of placement, so
// co-location yields no locality benefit (the trade-off the paper's DTL
// abstraction exists to explore).
type BurstBuffer struct {
	model  *cluster.Model
	fabric *network.Fabric
	// bbNode is the index of the virtual fabric endpoint representing the
	// burst buffer.
	bbNode int
}

// NewBurstBuffer builds a burst-buffer tier. The fabric must have been
// created with one extra endpoint (index = cluster nodes) whose bandwidth
// is the burst buffer's aggregate throughput; BurstBufferFabricConfig
// prepares such a configuration.
func NewBurstBuffer(model *cluster.Model, fabric *network.Fabric, bbNode int) *BurstBuffer {
	return &BurstBuffer{model: model, fabric: fabric, bbNode: bbNode}
}

// BurstBufferFabricConfig returns a fabric configuration with an extra
// endpoint for the burst buffer with the given aggregate bandwidth.
func BurstBufferFabricConfig(spec cluster.Spec, bbBandwidth float64) network.Config {
	nb := make([]float64, spec.Nodes+1)
	nb[spec.Nodes] = bbBandwidth
	return network.Config{
		Nodes:         spec.Nodes + 1,
		NICBandwidth:  spec.NICBandwidth,
		Latency:       spec.NICLatency,
		NodeBandwidth: nb,
	}
}

// Name implements Tier.
func (b *BurstBuffer) Name() string { return "burstbuffer" }

// Write implements Tier: serialize, then push to the burst buffer.
func (b *BurstBuffer) Write(p *sim.Proc, producerNode int, bytes int64) error {
	defer putSpan(p, b.Name(), producerNode, bytes)()
	if err := p.Wait(b.model.SerializeTime(bytes)); err != nil {
		return err
	}
	if err := b.fabric.Transfer(p, producerNode, b.bbNode, bytes); err != nil {
		return fmt.Errorf("dtl: burst buffer put: %w", err)
	}
	return nil
}

// Read implements Tier: pull from the burst buffer, then deserialize.
func (b *BurstBuffer) Read(p *sim.Proc, producerNode, consumerNode int, bytes int64) error {
	defer getSpan(p, b.Name(), producerNode, consumerNode, bytes)()
	if err := b.fabric.Transfer(p, b.bbNode, consumerNode, bytes); err != nil {
		return fmt.Errorf("dtl: burst buffer get: %w", err)
	}
	return p.Wait(b.model.DeserializeTime(bytes))
}

// PFS is the parallel-file-system tier: like the burst buffer but with a
// (typically much lower) aggregate bandwidth shared by everyone, plus a
// fixed metadata latency per operation — the I/O bottleneck in situ
// processing exists to avoid (paper Section 1).
type PFS struct {
	model     *cluster.Model
	fabric    *network.Fabric
	fsNode    int
	mdLatency float64
}

// NewPFS builds a PFS tier over a fabric with an extra endpoint for the
// file system (use PFSFabricConfig).
func NewPFS(model *cluster.Model, fabric *network.Fabric, fsNode int, metadataLatency float64) *PFS {
	return &PFS{model: model, fabric: fabric, fsNode: fsNode, mdLatency: metadataLatency}
}

// PFSFabricConfig returns a fabric configuration with an extra endpoint
// for the parallel file system with the given aggregate bandwidth.
func PFSFabricConfig(spec cluster.Spec, fsBandwidth float64) network.Config {
	nb := make([]float64, spec.Nodes+1)
	nb[spec.Nodes] = fsBandwidth
	return network.Config{
		Nodes:         spec.Nodes + 1,
		NICBandwidth:  spec.NICBandwidth,
		Latency:       spec.NICLatency,
		NodeBandwidth: nb,
	}
}

// Name implements Tier.
func (f *PFS) Name() string { return "pfs" }

// Write implements Tier.
func (f *PFS) Write(p *sim.Proc, producerNode int, bytes int64) error {
	defer putSpan(p, f.Name(), producerNode, bytes)()
	if err := p.Wait(f.model.SerializeTime(bytes) + f.mdLatency); err != nil {
		return err
	}
	if err := f.fabric.Transfer(p, producerNode, f.fsNode, bytes); err != nil {
		return fmt.Errorf("dtl: pfs write: %w", err)
	}
	return nil
}

// Read implements Tier.
func (f *PFS) Read(p *sim.Proc, producerNode, consumerNode int, bytes int64) error {
	defer getSpan(p, f.Name(), producerNode, consumerNode, bytes)()
	if err := p.Wait(f.mdLatency); err != nil {
		return err
	}
	if err := f.fabric.Transfer(p, f.fsNode, consumerNode, bytes); err != nil {
		return fmt.Errorf("dtl: pfs read: %w", err)
	}
	return p.Wait(f.model.DeserializeTime(bytes))
}
