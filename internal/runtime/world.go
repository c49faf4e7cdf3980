package runtime

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/sim"
)

// simPlan is the frozen, execution-independent half of a simulated run:
// everything RunSimulated derives from (spec, placement, ensemble, tier,
// staging depth) before the first event fires — the machine with its
// tenants and staging reservations, the performance model, per-component
// allocations, the static co-location assessments, and on DIMES each
// member's closed-form steady state. A plan carries no
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

	// states prices every member once (DIMES plans only; see priceDimes):
	// the timeline kernel reads W and the co-located R from it, and
	// SteadyStates returns it. exact reports that the closed form equals
	// the flat-fabric, one-slot timeline.
	states []core.SteadyState
	exact  bool
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

// validateInputs checks what a plan is built from, in the order its
// errors have always been reported.
func validateInputs(spec cluster.Spec, p placement.Placement, es EnsembleSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := p.Validate(spec); err != nil {
		return err
	}
	return es.Validate(p)
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
		t, err := machine.Allocate("m"+strconv.Itoa(i)+".sim", node, m.Simulation.Cores, es.Members[i].Sim)
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
			at, err := machine.Allocate("m"+strconv.Itoa(i)+".ana"+strconv.Itoa(j), anode, a.Cores, es.Members[i].Analyses[j])
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
		for i := range p.Members {
			for _, a := range anas[i] {
				if a.node != sims[i].node {
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
	for i := range p.Members {
		node, _ := machine.Node(sims[i].node)
		if sims[i].assess, err = model.Assess(node, sims[i].tenant); err != nil {
			return nil, err
		}
		for j := range anas[i] {
			anode, _ := machine.Node(anas[i][j].node)
			if anas[i][j].assess, err = model.Assess(anode, anas[i][j].tenant); err != nil {
				return nil, err
			}
		}
	}

	pl := &simPlan{
		spec: spec, p: p, es: es, tier: tier, slots: slots,
		model: model, machine: machine, sims: sims, anas: anas,
	}
	if tier == TierDimes {
		pl.priceDimes()
	}
	return pl, nil
}

// priceDimes prices each member's steady state in closed form (Eq. 1–3
// inputs): S and A are the assessed compute times, W serializes and
// copies into the producer's memory, and R copies locally or gets
// remotely at the per-flow rate, then deserializes.
//
// The closed form is exact on the flat fabric with one staging slot when
// no NIC link carries more remote reads than fit at that rate: every
// flow then runs at the per-flow cap whatever else is in flight (the
// fabric's max-min fill gives every flow the cap when cap ≤ link/count),
// so every stage lasts the same each step. Past that count, reads that
// overlap fair-share the link and take longer than RemoteGetBaseTime.
func (pl *simPlan) priceDimes() {
	model := pl.model
	n := pl.spec.Nodes
	// reads[v] counts the remote reads leaving node v's NIC, reads[n+v]
	// those arriving at it.
	reads := make([]int, 2*n)
	pl.states = make([]core.SteadyState, len(pl.p.Members))
	for i := range pl.p.Members {
		bytes := pl.es.Members[i].Sim.BytesPerStep
		prod := pl.sims[i].node
		ss := core.SteadyState{
			S:         pl.sims[i].assess.ComputeTime,
			W:         model.SerializeTime(bytes) + model.LocalCopyTime(bytes),
			Couplings: make([]core.Coupling, len(pl.anas[i])),
		}
		for j, a := range pl.anas[i] {
			get := model.LocalCopyTime(bytes)
			if a.node != prod {
				get = model.RemoteGetBaseTime(bytes)
				reads[prod]++
				reads[n+a.node]++
			}
			ss.Couplings[j] = core.Coupling{R: get + model.DeserializeTime(bytes), A: a.assess.ComputeTime}
		}
		pl.states[i] = ss
	}
	pl.exact = pl.slots == 1
	rate := min(model.RemoteStageBW, pl.spec.NICBandwidth)
	for _, c := range reads {
		if c > 0 && rate > pl.spec.NICBandwidth/float64(c) {
			pl.exact = false
		}
	}
}

// SteadyStates prices every member of the placement in closed form on
// flat DIMES with one staging slot, jitter- and fault-free, from the
// plan a simulated run of the same inputs executes. exact reports that
// the closed form equals that run's timeline; when it is false some NIC
// fair-shares concurrent remote reads and only a simulation prices them.
func SteadyStates(spec cluster.Spec, p placement.Placement, es EnsembleSpec) ([]core.SteadyState, bool, error) {
	if err := validateInputs(spec, p, es); err != nil {
		return nil, false, err
	}
	pl, err := buildPlan(spec, p, es, TierDimes, 1, nil)
	if err != nil {
		return nil, false, err
	}
	return pl.states, pl.exact, nil
}

// PriceSteadyStates returns each member's steady state as a jitter- and
// fault-free run of the placement on flat DIMES with one staging slot
// measures it (its post-warm-up stage means), from one plan: the closed
// form SteadyStates returns where that is exact, equal to the run's means
// to rounding; the timeline kernel's summary of the run elsewhere.
func PriceSteadyStates(spec cluster.Spec, p placement.Placement, es EnsembleSpec) ([]core.SteadyState, error) {
	if err := validateInputs(spec, p, es); err != nil {
		return nil, err
	}
	pl, err := buildPlan(spec, p, es, TierDimes, 1, nil)
	if err != nil {
		return nil, err
	}
	if pl.exact {
		return pl.states, nil
	}
	if sum, ok := summarizeKernel(pl, SimOptions{}); ok {
		return sum.States, nil
	}
	tr, _, err := runJoint(pl, SimOptions{}, nil)
	if err != nil {
		return nil, err
	}
	states := make([]core.SteadyState, len(tr.Members))
	for i, m := range tr.Members {
		if states[i], err = core.FromMemberTrace(m, core.ExtractOptions{}); err != nil {
			return nil, err
		}
	}
	return states, nil
}

// World is the shared immutable state of a campaign: a bounded
// content-addressed cache of frozen simPlans, arenas of recycled simulation environments and
// kernel scratch, and a bounded memo of seeded jitter sources. One World
// serves arbitrarily many concurrent jobs — the plan cache and the seed
// memo are read-mostly under mutexes and the arenas are sync.Pools — so a
// campaign service creates exactly one and threads it through every
// execution via SimOptions.World.
//
// Correctness: a plan is keyed by everything that shapes it (cluster
// spec, placement, ensemble spec, tier, staging depth) and carries no
// per-run state; during execution it is only read. Environments are
// recycled only after sim.Env.Reset succeeds, which restores the
// NewEnv-identical starting state while keeping allocations, so a pooled
// environment replays events bit-identically to a fresh one (pinned by
// the golden determinism tests). A memoized seed hands a stream the exact
// state seeding would (TestSeedMemoStreamEquality).
type World struct {
	mu    sync.Mutex
	plans map[[32]byte]*simPlan
	envs  sync.Pool
	// kernels recycles timeline-kernel scratch (component states, flow
	// set, jitter generators, summary durations); a kernel keeps nothing
	// of a finished run.
	kernels sync.Pool
	seeds   seedMemo

	// hits/misses instrument the plan cache (read via Stats).
	hits, misses int64
}

// NewWorld returns an empty World.
func NewWorld() *World {
	w := &World{plans: make(map[[32]byte]*simPlan)}
	w.envs.New = func() any { return sim.NewEnv() }
	w.seeds.index = make(map[int64]int, seedSlots)
	return w
}

// WorldStats counts plan-cache and seed-memo traffic.
type WorldStats struct {
	PlanHits   int64
	PlanMisses int64
	// SeedHits counts jitter streams copied from a memoized seed,
	// SeedMisses the streams that were seeded.
	SeedHits   int64
	SeedMisses int64
}

// Stats returns the plan-cache and seed-memo counters.
func (w *World) Stats() WorldStats {
	if w == nil {
		return WorldStats{}
	}
	w.mu.Lock()
	st := WorldStats{PlanHits: w.hits, PlanMisses: w.misses}
	w.mu.Unlock()
	w.seeds.mu.Lock()
	st.SeedHits, st.SeedMisses = w.seeds.hits, w.seeds.misses
	w.seeds.mu.Unlock()
	return st
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

// planSlots bounds the plan cache by count. A plan is ≈ 1.3 KB plus
// ≈ 150 B per node and ≈ 360 B per component (DESIGN.md §16): a Table 2
// plan on 3 nodes is 2.0–2.9 KB. Plans are keyed by placement, cluster,
// ensemble, tier and staging depth, so a Table 2 sweep at one step
// count uses 7 slots, and Tables 2 and 4 at four step counts fit at once.
const planSlots = 64

// storePlan publishes a freshly built plan. Concurrent builders of the
// same key race benignly: both plans are correct and identical in
// content, and the last write wins. A new key that finds the cache full
// evicts an arbitrary plan (the first one map iteration yields): a plan
// is a pure function of its key, so an evicted one is rebuilt, identical,
// by the next run that needs it.
func (w *World) storePlan(key [32]byte, pl *simPlan) {
	w.mu.Lock()
	if _, ok := w.plans[key]; !ok && len(w.plans) >= planSlots {
		for k := range w.plans {
			delete(w.plans, k)
			break
		}
	}
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
