package faults

import (
	"fmt"
	"math/rand"
)

// stagingRule is the live state of one StagingFault: its own RNG stream
// (so rules do not perturb each other's draws) and the count of matching
// operations seen so far.
type stagingRule struct {
	StagingFault
	rng *rand.Rand
	ops int
}

// Injector is the runtime face of a plan: the runtime consults it before
// every staging operation and compute stage, and reads its crash and
// degradation schedules at startup. A nil *Injector is a valid no-op (no
// faults), mirroring the obs.Recorder convention, so the runtime threads
// it unconditionally.
//
// Determinism: each rate rule draws from its own rand.Rand seeded from
// (plan seed, rule index). Because the discrete-event engine dispatches
// operations in a deterministic order, the draw sequence — and therefore
// the injected fault set — is identical on every run of the same plan.
// An Injector is single-run state of one single-threaded engine run:
// build a fresh one per execution.
type Injector struct {
	plan    *Plan
	staging []*stagingRule
}

// NewInjector builds the live injector for one run of the plan. A nil or
// empty plan yields a nil injector.
func NewInjector(p *Plan) *Injector {
	if p.Empty() {
		return nil
	}
	in := &Injector{plan: p}
	for i, s := range p.Staging {
		r := &stagingRule{StagingFault: s}
		if s.Rate > 0 {
			// Distinct, seed-stable stream per rule: mixing with a large
			// odd constant decorrelates neighbouring seeds.
			r.rng = rand.New(rand.NewSource(p.Seed*0x9E3779B1 + int64(i) + 1))
		}
		in.staging = append(in.staging, r)
	}
	return in
}

// Enabled reports whether the injector injects anything.
func (in *Injector) Enabled() bool { return in != nil }

// Plan returns the plan behind the injector (nil for a no-op injector).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// StagingOp accounts one staging operation (a DTL write or read) on the
// named tier at virtual time now, and returns a non-nil error wrapping
// ErrInjected if a rule fires. Every retry attempt is a fresh operation:
// it is counted and drawn again, so a retried operation can fail again —
// exactly the behaviour a real flaky staging service exhibits.
func (in *Injector) StagingOp(tier string, now float64) error {
	if in == nil {
		return nil
	}
	for i, r := range in.staging {
		if !matchTier(r.Tier, tier) {
			continue
		}
		r.ops++
		if r.FailAtOp > 0 && r.ops == r.FailAtOp {
			return fmt.Errorf("tier %s op %d (rule %d): %w", tier, r.ops, i, ErrInjected)
		}
		if r.rng != nil {
			draw := r.rng.Float64()
			if inWindow(now, r.Start, r.End) && draw < r.Rate {
				return fmt.Errorf("tier %s op %d (rule %d, rate %v): %w", tier, r.ops, i, r.Rate, ErrInjected)
			}
		}
	}
	return nil
}

// Slowdown returns the compute-dilation factor for the named component at
// virtual time now: the product of every active matching straggler window
// (1 when none match). The runtime samples it at each compute stage start.
func (in *Injector) Slowdown(component string, now float64) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, s := range in.plan.Stragglers {
		if MatchComponent(s.Component, component) && inWindow(now, s.Start, s.End) {
			f *= s.Factor
		}
	}
	return f
}

// Crashes returns the node-crash schedule.
func (in *Injector) Crashes() []NodeCrash {
	if in == nil {
		return nil
	}
	return in.plan.Crashes
}

// NetworkWindows returns the network-degradation schedule.
func (in *Injector) NetworkWindows() []NetworkWindow {
	if in == nil {
		return nil
	}
	return in.plan.Network
}
