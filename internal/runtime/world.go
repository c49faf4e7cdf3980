package runtime

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/sim"
	"ensemblekit/internal/trace"
)

// simPlan is the frozen, execution-independent half of a simulated run:
// everything RunSimulated derives from (spec, placement, ensemble, tier,
// staging depth) before the first event fires — the machine with its
// tenants and staging reservations, the performance model, per-component
// allocations, and the static co-location assessments. A plan carries no
// seed, jitter, fault, or resilience state, so one plan serves every job
// of a campaign that shares the configuration: the DES borrows it
// read-only instead of rebuilding it per run.
type simPlan struct {
	spec  cluster.Spec
	p     placement.Placement
	es    EnsembleSpec
	tier  string
	slots int

	model   *cluster.Model
	machine *cluster.Machine
	sims    []compAlloc
	anas    [][]compAlloc

	assessSim []cluster.Assessment
	assessAna [][]cluster.Assessment
}

// normSlots applies the StagingSlots default (1, the paper's synchronous
// no-buffering protocol).
func normSlots(slots int) int {
	if slots <= 0 {
		return 1
	}
	return slots
}

// planKey content-addresses a plan by its inputs. Jobs of one campaign
// differ in seeds, jitter, faults, and resilience — none of which shape
// the plan — so a Table 2/4 sweep collapses to one key per configuration.
func planKey(spec cluster.Spec, p placement.Placement, es EnsembleSpec, tier string, slots int) ([32]byte, error) {
	b, err := json.Marshal(struct {
		Spec  cluster.Spec        `json:"spec"`
		P     placement.Placement `json:"p"`
		ES    EnsembleSpec        `json:"es"`
		Tier  string              `json:"tier"`
		Slots int                 `json:"slots"`
	}{spec, p, es, tier, slots})
	if err != nil {
		return [32]byte{}, fmt.Errorf("runtime: plan key: %w", err)
	}
	return sha256.Sum256(b), nil
}

// buildPlan performs the validation-gated construction RunSimulated
// historically did inline, preserving its exact checks, ordering, and
// error wording: allocate every component on its node, reject multi-node
// components, reserve DIMES staging memory on producers, and pre-assess
// every component against its co-location context. modelOverride, when
// non-nil, substitutes the performance model (such plans are never
// cached — the override is not content-addressable).
func buildPlan(spec cluster.Spec, p placement.Placement, es EnsembleSpec, tier string, slots int, modelOverride *cluster.Model) (*simPlan, error) {
	machine, err := cluster.NewMachine(spec)
	if err != nil {
		return nil, err
	}
	model := modelOverride
	if model == nil {
		model = cluster.NewModel(spec)
	}

	// Allocate every component on its node; reject multi-node components
	// (the paper's experiments are single-node per component, and the
	// contention model is node-local).
	sims := make([]compAlloc, len(p.Members))
	anas := make([][]compAlloc, len(p.Members))
	// analysis < 0 means "the member's simulation"; the error label is only
	// built on the failure path.
	singleNode := func(c placement.Component, member, analysis int) (int, error) {
		ns := c.NodeSet()
		if len(ns) != 1 {
			label := fmt.Sprintf("member %d simulation", member)
			if analysis >= 0 {
				label = fmt.Sprintf("member %d analysis %d", member, analysis)
			}
			return 0, fmt.Errorf("runtime: %s spans %d nodes; the simulated backend requires single-node components", label, len(ns))
		}
		return ns[0], nil
	}
	for i, m := range p.Members {
		node, err := singleNode(m.Simulation, i, -1)
		if err != nil {
			return nil, err
		}
		t, err := machine.Allocate(fmt.Sprintf("m%d.sim", i), node, m.Simulation.Cores, es.Members[i].Sim)
		if err != nil {
			return nil, err
		}
		sims[i] = compAlloc{tenant: t, node: node}
		anas[i] = make([]compAlloc, len(m.Analyses))
		for j, a := range m.Analyses {
			anode, err := singleNode(a, i, j)
			if err != nil {
				return nil, err
			}
			at, err := machine.Allocate(fmt.Sprintf("m%d.ana%d", i, j), anode, a.Cores, es.Members[i].Analyses[j])
			if err != nil {
				return nil, err
			}
			anas[i][j] = compAlloc{tenant: at, node: anode}
		}
	}
	// DIMES keeps staged data in the producer's node memory, so remote
	// readers perturb the producer node and the staged chunks (double
	// buffered: the slot being read plus the one being written, times the
	// configured slot depth) must fit in the producer's DRAM. Intermediate
	// tiers (burst buffer, PFS) hold the data off-node: neither applies.
	if tier == TierDimes {
		for i, m := range p.Members {
			for _, a := range m.Analyses {
				if a.NodeSet()[0] != sims[i].node {
					sims[i].tenant.RemoteReaders++
				}
			}
			reserve := es.Members[i].Sim.BytesPerStep * int64(slots+1)
			if err := machine.ReserveStaging(sims[i].tenant.ID, reserve); err != nil {
				return nil, err
			}
		}
	}

	// Pre-assess every component against its co-location context (static
	// contention; the DES adds the emergent synchronization and staging
	// dynamics on top).
	assessSim := make([]cluster.Assessment, len(p.Members))
	assessAna := make([][]cluster.Assessment, len(p.Members))
	for i := range p.Members {
		node, _ := machine.Node(sims[i].node)
		a, err := model.Assess(node, sims[i].tenant)
		if err != nil {
			return nil, err
		}
		assessSim[i] = a
		assessAna[i] = make([]cluster.Assessment, len(anas[i]))
		for j := range anas[i] {
			anode, _ := machine.Node(anas[i][j].node)
			aa, err := model.Assess(anode, anas[i][j].tenant)
			if err != nil {
				return nil, err
			}
			assessAna[i][j] = aa
		}
	}

	return &simPlan{
		spec: spec, p: p, es: es, tier: tier, slots: slots,
		model: model, machine: machine, sims: sims, anas: anas,
		assessSim: assessSim, assessAna: assessAna,
	}, nil
}

// World is the shared immutable state of a campaign: a content-addressed
// cache of frozen simPlans plus arenas of recycled simulation
// environments and kernel scratch. One World serves arbitrarily many
// concurrent jobs — the plan cache is read-mostly under a mutex and the
// arenas are sync.Pools — so a campaign service creates exactly one and
// threads it through every execution via SimOptions.World.
//
// Correctness: a plan is keyed by everything that shapes it (cluster
// spec, placement, ensemble spec, tier, staging depth) and carries no
// per-run state; during execution it is only read. Environments are
// recycled only after sim.Env.Reset succeeds, which restores the
// NewEnv-identical starting state while keeping allocations, so a pooled
// environment replays events bit-identically to a fresh one (pinned by
// the golden determinism tests).
type World struct {
	mu    sync.Mutex
	plans map[[32]byte]*simPlan
	envs  sync.Pool
	// kernels recycles timeline-kernel scratch (component states, flow
	// set, jitter generators); a kernel keeps nothing of a finished run.
	kernels sync.Pool
	// traces recycles released kernel trace storage (RunSimulatedScratch).
	traces sync.Pool

	// hits/misses instrument the plan cache (read via Stats).
	hits, misses int64
}

// NewWorld returns an empty World.
func NewWorld() *World {
	w := &World{plans: make(map[[32]byte]*simPlan)}
	w.envs.New = func() any { return sim.NewEnv() }
	w.traces.New = func() any { return new(traceStorage) }
	return w
}

// WorldStats counts plan-cache traffic.
type WorldStats struct {
	PlanHits   int64
	PlanMisses int64
}

// Stats returns the plan-cache counters.
func (w *World) Stats() WorldStats {
	if w == nil {
		return WorldStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorldStats{PlanHits: w.hits, PlanMisses: w.misses}
}

// cachedPlan returns the frozen plan for the key, or nil on a miss.
func (w *World) cachedPlan(key [32]byte) *simPlan {
	w.mu.Lock()
	defer w.mu.Unlock()
	if pl, ok := w.plans[key]; ok {
		w.hits++
		return pl
	}
	w.misses++
	return nil
}

// storePlan publishes a freshly built plan. Concurrent builders of the
// same key race benignly: both plans are correct and identical in
// content, and the last write wins.
func (w *World) storePlan(key [32]byte, pl *simPlan) {
	w.mu.Lock()
	w.plans[key] = pl
	w.mu.Unlock()
}

// acquireEnv returns an environment from the World's arena (nil World:
// a fresh one).
func (w *World) acquireEnv() *sim.Env {
	if w == nil {
		return sim.NewEnv()
	}
	return w.envs.Get().(*sim.Env)
}

// releaseEnv recycles an environment whose run quiesced cleanly; an
// environment that fails Reset (live processes, mid-run state) is simply
// dropped for the GC.
func (w *World) releaseEnv(e *sim.Env) {
	if w == nil || e == nil {
		return
	}
	if err := e.Reset(); err != nil {
		return
	}
	w.envs.Put(e)
}

// acquireKernel returns kernel scratch from the arena, or fresh.
func (w *World) acquireKernel() *kernel {
	if w != nil {
		if k, ok := w.kernels.Get().(*kernel); ok {
			return k
		}
	}
	return new(kernel)
}

// releaseKernel recycles the scratch of a finished kernel run.
func (w *World) releaseKernel(k *kernel) {
	if w != nil {
		w.kernels.Put(k)
	}
}

// traceStorage holds a kernel trace's stage and step records for reuse.
type traceStorage struct {
	stages []trace.StageRecord
	steps  []trace.StepRecord
}
