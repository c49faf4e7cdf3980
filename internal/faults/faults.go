// Package faults defines the declarative fault model of the reproduction:
// a seeded, fully deterministic description of everything that can go
// wrong during an ensemble run. The paper's ensembles ran for hours on
// Cori, where staging hiccups, slow nodes, and component crashes are
// routine; SIM-SITU-style faithful simulation treats such degraded
// execution scenarios as first-class inputs rather than afterthoughts.
//
// A Plan lists four kinds of faults:
//
//   - StagingFault: per-tier staging-operation failures, either a random
//     per-operation rate inside a virtual-time window or a deterministic
//     "fail the n-th operation" trigger;
//   - NetworkWindow: a transient network-degradation window scaling every
//     link capacity (and the per-flow protocol cap) by a factor;
//   - NodeCrash: a node crash at a virtual time, killing every component
//     placed on that node;
//   - Straggler: a slowdown window dilating the compute stages of matching
//     components (slow-node behaviour without killing anything).
//
// Plans serialize to JSON (strict: unknown fields are rejected) so fault
// scenarios are reviewable artifacts, and the Injector derived from a plan
// consumes randomness only from the plan's seed: the same plan and seed
// yield the same faults on every run, which is what makes failure
// experiments reproducible and traces byte-identical across runs.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrInjected is the root cause of every staging failure produced by a
// fault plan. Resilience policies treat it (and stage timeouts) as
// transient: retryable with backoff.
var ErrInjected = errors.New("faults: injected staging failure")

// StagingFault describes staging-operation failures on one DTL tier.
// Exactly one trigger should be set: Rate for random per-operation
// failures, FailAtOp for a deterministic n-th-operation failure.
type StagingFault struct {
	// Tier names the DTL tier the rule applies to ("dimes", "burstbuffer",
	// "pfs"); "" or "*" matches every tier.
	Tier string `json:"tier,omitempty"`
	// Rate is the per-operation failure probability in [0,1], drawn
	// deterministically from the plan seed.
	Rate float64 `json:"rate,omitempty"`
	// FailAtOp fails the n-th matching operation (1-based); 0 disables the
	// deterministic trigger.
	FailAtOp int `json:"failAtOp,omitempty"`
	// Start and End bound the window (virtual seconds) in which the rule
	// is active; End 0 means open-ended.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
}

// NetworkWindow is a transient network-degradation window: between Start
// and End (virtual seconds) every fabric link capacity and the per-flow
// protocol cap are multiplied by Factor.
type NetworkWindow struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Factor float64 `json:"factor"` // in (0,1]: 0.25 = quarter bandwidth
}

// NodeCrash kills every component placed on Node at virtual time At.
// What happens next is the resilience policy's decision: fail fast,
// restart the components from the last completed in situ step, or drop
// the affected members and continue.
type NodeCrash struct {
	Node int     `json:"node"`
	At   float64 `json:"at"`
}

// Straggler dilates the compute stages of matching components by Factor
// while the window is active — a slow node or noisy neighbour that
// degrades progress without killing anything.
type Straggler struct {
	// Component matches trace component names ("m0.sim", "m1.ana0");
	// "" or "*" matches everything, a trailing "*" matches a prefix
	// ("m0.*" matches every component of member 0).
	Component string  `json:"component,omitempty"`
	Start     float64 `json:"start,omitempty"`
	End       float64 `json:"end,omitempty"` // 0 = open-ended
	Factor    float64 `json:"factor"`        // >= 1: 2 = twice as slow
}

// Plan is a complete declarative fault scenario. The zero value is a
// valid empty plan (no faults).
type Plan struct {
	// Name labels the scenario in reports and traces.
	Name string `json:"name,omitempty"`
	// Seed drives every random draw of the plan. Two runs with the same
	// plan (seed included) inject identical faults.
	Seed int64 `json:"seed,omitempty"`

	Staging    []StagingFault  `json:"staging,omitempty"`
	Network    []NetworkWindow `json:"network,omitempty"`
	Crashes    []NodeCrash     `json:"crashes,omitempty"`
	Stragglers []Straggler     `json:"stragglers,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Staging) == 0 && len(p.Network) == 0 &&
		len(p.Crashes) == 0 && len(p.Stragglers) == 0)
}

// Validate checks every rule of the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, s := range p.Staging {
		if s.Rate < 0 || s.Rate > 1 {
			return fmt.Errorf("faults: staging[%d]: rate %v outside [0,1]", i, s.Rate)
		}
		if s.FailAtOp < 0 {
			return fmt.Errorf("faults: staging[%d]: negative failAtOp %d", i, s.FailAtOp)
		}
		if s.Rate == 0 && s.FailAtOp == 0 {
			return fmt.Errorf("faults: staging[%d]: needs a rate or a failAtOp trigger", i)
		}
		if s.Rate > 0 && s.FailAtOp > 0 {
			return fmt.Errorf("faults: staging[%d]: rate and failAtOp are mutually exclusive", i)
		}
		if err := window(s.Start, s.End); err != nil {
			return fmt.Errorf("faults: staging[%d]: %w", i, err)
		}
	}
	for i, w := range p.Network {
		if w.Factor <= 0 || w.Factor > 1 {
			return fmt.Errorf("faults: network[%d]: factor %v outside (0,1]", i, w.Factor)
		}
		if w.End <= w.Start {
			return fmt.Errorf("faults: network[%d]: window [%v,%v) is empty", i, w.Start, w.End)
		}
		if w.Start < 0 {
			return fmt.Errorf("faults: network[%d]: negative start %v", i, w.Start)
		}
	}
	for i, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative node %d", i, c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative time %v", i, c.At)
		}
	}
	for i, s := range p.Stragglers {
		if s.Factor < 1 {
			return fmt.Errorf("faults: stragglers[%d]: factor %v must be >= 1", i, s.Factor)
		}
		if err := window(s.Start, s.End); err != nil {
			return fmt.Errorf("faults: stragglers[%d]: %w", i, err)
		}
	}
	return nil
}

func window(start, end float64) error {
	if start < 0 {
		return fmt.Errorf("negative start %v", start)
	}
	if end != 0 && end <= start {
		return fmt.Errorf("window [%v,%v) is empty", start, end)
	}
	return nil
}

// inWindow reports whether t falls in [start, end) with end 0 open-ended.
func inWindow(t, start, end float64) bool {
	return t >= start && (end == 0 || t < end)
}

// MatchComponent reports whether a plan component pattern matches a trace
// component name: "" and "*" match everything, a trailing "*" matches the
// prefix, anything else matches exactly.
func MatchComponent(pattern, name string) bool {
	switch {
	case pattern == "" || pattern == "*":
		return true
	case strings.HasSuffix(pattern, "*"):
		return strings.HasPrefix(name, strings.TrimSuffix(pattern, "*"))
	default:
		return pattern == name
	}
}

// matchTier reports whether a staging rule applies to the tier.
func matchTier(pattern, tier string) bool {
	return pattern == "" || pattern == "*" || pattern == tier
}

// WriteJSON serializes the plan as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON parses and validates a plan. Decoding is strict: unknown
// fields are rejected, so a typo in a scenario file fails loudly at the
// boundary instead of silently injecting nothing.
func ReadJSON(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
