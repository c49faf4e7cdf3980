// Package campaign is the ensemble-evaluation service of the reproduction:
// a concurrent engine that runs many placement configurations — the batch
// workload behind the paper's Tables 2 and 4 and the scheduler's candidate
// evaluations — through a bounded worker pool with a content-addressed
// result cache.
//
// The design exploits one property relentlessly: a simulated ensemble run
// is a pure function of its inputs. A JobSpec captures those inputs
// completely (cluster, placement, workload, simulation options, fault
// plan), canonicalizes them, and hashes them; the hash keys a cache of
// results, and singleflight deduplication collapses concurrent identical
// submissions into one execution. Everything downstream — the campaign
// planner, the scheduler's placement search, the experiments sweeps, the
// HTTP API of cmd/ensembled — submits JobSpecs and shares the same cache,
// so a placement evaluated by the annealer yesterday costs nothing when a
// Table 2 campaign asks for it today.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/network"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// SimConfig is the serializable subset of runtime.SimOptions: every field
// that changes a simulated run's result, and nothing that does not (live
// recorders) or cannot be serialized (model overrides). It is the part of
// a JobSpec that makes runs content-addressable.
type SimConfig struct {
	// Tier selects the DTL implementation ("" = DIMES).
	Tier string `json:"tier,omitempty"`
	// TierBandwidth overrides the burst-buffer/PFS bandwidth in bytes/s.
	TierBandwidth float64 `json:"tierBandwidth,omitempty"`
	// Jitter is the multiplicative compute-stage noise amplitude.
	Jitter float64 `json:"jitter,omitempty"`
	// Seed drives the jitter and the fault plan's fallback seed.
	Seed int64 `json:"seed,omitempty"`
	// StagingSlots is the per-member staging buffer depth (0 = 1 slot).
	StagingSlots int `json:"stagingSlots,omitempty"`
	// Topology optionally adds dragonfly structure to the interconnect.
	Topology *network.Dragonfly `json:"topology,omitempty"`
	// Resilience is the recovery policy applied around the fault plan.
	Resilience runtime.Resilience `json:"resilience,omitempty"`
}

// Options expands the config into runtime.SimOptions for execution.
func (c SimConfig) Options() runtime.SimOptions {
	return runtime.SimOptions{
		Tier:          c.Tier,
		TierBandwidth: c.TierBandwidth,
		Jitter:        c.Jitter,
		Seed:          c.Seed,
		StagingSlots:  c.StagingSlots,
		Topology:      c.Topology,
		Resilience:    c.Resilience,
	}
}

// ErrNotCacheable marks runtime.SimOptions that cannot be captured in a
// JobSpec: a *cluster.Model override changes results but has no canonical
// serialization, so caching it would alias distinct runs.
var ErrNotCacheable = errors.New("campaign: SimOptions.Model overrides are not content-addressable")

// SimConfigOf captures runtime.SimOptions as a serializable SimConfig and
// its validated fault plan. Recorders are dropped — instrumentation never
// changes results — while model overrides are rejected with
// ErrNotCacheable.
func SimConfigOf(o runtime.SimOptions) (SimConfig, *faults.Plan, error) {
	if o.Model != nil {
		return SimConfig{}, nil, ErrNotCacheable
	}
	if err := o.Faults.Validate(); err != nil {
		return SimConfig{}, nil, err
	}
	return SimConfig{
		Tier:          o.Tier,
		TierBandwidth: o.TierBandwidth,
		Jitter:        o.Jitter,
		Seed:          o.Seed,
		StagingSlots:  o.StagingSlots,
		Topology:      o.Topology,
		Resilience:    o.Resilience,
	}, o.Faults, nil
}

// JobSpec is the canonical description of one simulated ensemble run: the
// complete, serializable input set of runtime.RunSimulated. Two JobSpecs
// with the same Hash produce byte-identical traces; the service relies on
// this to cache and deduplicate.
type JobSpec struct {
	// Cluster is the simulated machine.
	Cluster cluster.Spec `json:"cluster"`
	// Placement maps every component to nodes (Tables 2 and 4).
	Placement placement.Placement `json:"placement"`
	// Ensemble is the workload (what every component computes).
	Ensemble runtime.EnsembleSpec `json:"ensemble"`
	// Sim configures the simulator.
	Sim SimConfig `json:"sim,omitempty"`
	// Faults optionally injects a declarative fault plan.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// NewJob assembles a JobSpec from the public run parameters, growing the
// cluster to fit the placement (as the scheduler's evaluators do).
func NewJob(spec cluster.Spec, p placement.Placement, es runtime.EnsembleSpec, opts runtime.SimOptions) (JobSpec, error) {
	cfg, plan, err := SimConfigOf(opts)
	if err != nil {
		return JobSpec{}, err
	}
	for _, n := range p.UsedNodes() {
		if n+1 > spec.Nodes {
			spec.Nodes = n + 1
		}
	}
	return JobSpec{Cluster: spec, Placement: p, Ensemble: es, Sim: cfg, Faults: plan}, nil
}

// Work bounds (DESIGN.md §10). A run's memory grows with its steps ×
// components (~265 B of stage records per component-step) and its
// cluster's node count, and a campaign's with its job count, so all three
// are capped where a request is admitted: an unchecked integer must not
// size a buffer.
const (
	// maxJobWork caps one job's steps × components: ~70 MB of trace at
	// most, ~300× the paper's scale (37 steps × ≤ 24 components).
	maxJobWork = 1 << 18
	// maxClusterNodes caps a job's cluster: a plan holds ≈ 150 B a node
	// (DESIGN.md §16), so one plan's node state stays under 1 MB. It is
	// above Cori's 2 388 Haswell nodes, and every study, example, test
	// and bench workload uses at most a few dozen.
	maxClusterNodes = 4096
	// maxCampaignJobs caps the jobs one sweep expands to: a node keeps
	// the newest terminalJobsKept finished jobs resolvable, so a larger
	// campaign would evict its own first jobs before it finished.
	maxCampaignJobs = terminalJobsKept
)

// errOverBound marks a request refused because it exceeds a work bound;
// the HTTP API answers it 422.
var errOverBound = errors.New("campaign: over a work bound")

// Validate checks the spec the same way RunSimulated will, so malformed
// jobs fail at submission instead of occupying a worker, and holds it to
// maxClusterNodes and maxJobWork, so no admitted job can exhaust the
// node's memory.
func (s JobSpec) Validate() error {
	if s.Cluster.Nodes > maxClusterNodes {
		return fmt.Errorf("%w: %q asks for %d nodes, above the %d-node bound",
			errOverBound, s.Placement.Name, s.Cluster.Nodes, maxClusterNodes)
	}
	if err := s.Cluster.Validate(); err != nil {
		return err
	}
	if err := s.Placement.Validate(s.Cluster); err != nil {
		return err
	}
	steps, components := s.Ensemble.Steps, s.components()
	if components > 0 && steps > maxJobWork/components {
		return fmt.Errorf("%w: %q runs %d steps × %d components, above the %d bound",
			errOverBound, s.Placement.Name, steps, components, maxJobWork)
	}
	if err := s.Ensemble.Validate(s.Placement); err != nil {
		return err
	}
	if err := s.Sim.Resilience.Validate(); err != nil {
		return err
	}
	return s.Faults.Validate()
}

// components counts the placement's simulations and analyses.
func (s JobSpec) components() int {
	n := 0
	for _, m := range s.Placement.Members {
		n += 1 + len(m.Analyses)
	}
	return n
}

// decodeSpec is the one gate for spec bytes another process wrote: a
// peer's forward or drain handoff, or a journal record. The JSON must
// hold exactly one spec and no field this build does not know — one it
// would drop silently, running a different job than the writer meant —
// and the spec must validate.
func decodeSpec(b []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("campaign: undecodable spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errors.New("campaign: undecodable spec: data after the spec")
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// canonical returns a semantically equal copy in normal form: component
// node sets deduplicated and sorted (order and duplicates never change a
// run), empty fault plans erased, and empty fault-rule slices nil, so the
// encoding — and therefore the hash — is invariant under representation
// choices and JSON round-trips.
func (s JobSpec) canonical() JobSpec {
	p := placement.Placement{Name: s.Placement.Name, Members: make([]placement.Member, len(s.Placement.Members))}
	for i, m := range s.Placement.Members {
		nm := placement.Member{Simulation: placement.Component{
			Nodes: m.Simulation.NodeSet(), Cores: m.Simulation.Cores,
		}}
		for _, a := range m.Analyses {
			nm.Analyses = append(nm.Analyses, placement.Component{Nodes: a.NodeSet(), Cores: a.Cores})
		}
		p.Members[i] = nm
	}
	s.Placement = p
	if s.Faults.Empty() {
		s.Faults = nil
	} else {
		plan := *s.Faults
		if len(plan.Staging) == 0 {
			plan.Staging = nil
		}
		if len(plan.Network) == 0 {
			plan.Network = nil
		}
		if len(plan.Crashes) == 0 {
			plan.Crashes = nil
		}
		if len(plan.Stragglers) == 0 {
			plan.Stragglers = nil
		}
		s.Faults = &plan
	}
	return s
}

// CanonicalJSON encodes the spec in normal form. encoding/json emits
// struct fields in declaration order and sorts map keys, so the encoding
// is deterministic; the canonicalization above removes every remaining
// representational degree of freedom.
func (s JobSpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.canonical())
}

// Hash returns the content address of the job: the hex SHA-256 of its
// canonical encoding. Every field that changes the run's result changes
// the hash (placement structure, workload, steps, seed, jitter, tier,
// fault plan, resilience policy, machine shape); representational noise
// (node-list order, empty-vs-nil fault slices, JSON round-trips) does
// not.
func (s JobSpec) Hash() (string, error) {
	h, err := specHashes([]JobSpec{s})
	if err != nil {
		return "", err
	}
	return h[0], nil
}

// specHashes returns the Hash of each of specs, which must differ in
// Sim alone, as one candidate's seeds do. The canonical encoding is the
// three parts head ({"cluster":…,"placement":…,"ensemble":…,"sim":), the
// SimConfig object, and tail (faults, then }): the head and tail are
// encoded once, and each spec's hash covers the head, its own Sim and
// the tail.
func specHashes(specs []JobSpec) ([]string, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	e := specEncoders.Get().(*specEncoder)
	defer e.release()
	c := specs[0].canonical()
	e.buf.Reset()
	if err := e.tail(&c); err != nil {
		return nil, err
	}
	tail := bytes.Clone(e.buf.Bytes())
	e.buf.Reset()
	if err := e.head(&c); err != nil {
		return nil, err
	}
	headEnd := e.buf.Len()
	out := make([]string, len(specs))
	for i := range specs {
		e.buf.Truncate(headEnd)
		if err := e.value(&specs[i].Sim); err != nil {
			return nil, err
		}
		e.buf.Write(tail)
		sum := sha256.Sum256(e.buf.Bytes())
		out[i] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// specEncoder writes a spec's canonical encoding part by part into a
// reused buffer, byte-identical to CanonicalJSON: each field's value is
// what json.Marshal writes for it inside the spec.
type specEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var specEncoders = sync.Pool{New: func() any {
	e := &specEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// release returns the encoder to the pool unless an outsized spec grew
// its buffer: the pool keeps paper-sized buffers (≈ 1.4 KB) only.
func (e *specEncoder) release() {
	if e.buf.Cap() <= 64<<10 {
		specEncoders.Put(e)
	}
}

// head appends {"cluster":…,"placement":…,"ensemble":…,"sim": for a
// canonical spec.
func (e *specEncoder) head(c *JobSpec) error {
	e.buf.WriteString(`{"cluster":`)
	if err := e.value(&c.Cluster); err != nil {
		return err
	}
	e.buf.WriteString(`,"placement":`)
	if err := e.value(&c.Placement); err != nil {
		return err
	}
	e.buf.WriteString(`,"ensemble":`)
	if err := e.value(&c.Ensemble); err != nil {
		return err
	}
	e.buf.WriteString(`,"sim":`)
	return nil
}

// tail appends the fault plan, when there is one, and the closing brace.
func (e *specEncoder) tail(c *JobSpec) error {
	if c.Faults != nil {
		e.buf.WriteString(`,"faults":`)
		if err := e.value(c.Faults); err != nil {
			return err
		}
	}
	e.buf.WriteByte('}')
	return nil
}

// value appends v's compact JSON (without the newline Encode ends with).
func (e *specEncoder) value(v any) error {
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("campaign: hashing job spec: %w", err)
	}
	e.buf.Truncate(e.buf.Len() - 1)
	return nil
}
