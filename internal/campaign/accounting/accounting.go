// Package accounting attributes the resources a campaign consumed — and
// the resources it avoided consuming — in simulated core-seconds and
// wall-clock worker-seconds. It is the paper's Eq. 5-9 assessment turned
// into a ledger: every evaluated job is charged for the core-seconds its
// components held (split busy vs idle per component class), every cache
// hit is credited to the tier that served it, and the totals roll up per
// campaign, per node, and — via Merge — per fleet.
//
// The package is dependency-free (stdlib plus the trace layer it accounts
// for) and deterministic: a job ledger is a pure function of the
// execution trace, and snapshot rollups sum entries in sorted-hash order
// so float accumulation order is independent of job completion order.
// Ledgers derived from simulated time are therefore byte-identical
// run-to-run.
package accounting

import (
	"slices"
	"sort"
	"sync"

	"ensemblekit/internal/trace"
)

// Component classes a job's simulated core-seconds are attributed to.
const (
	// ClassSimulation covers the simulation executables: stage S (busy)
	// and I^S (idle — cores held while blocked on the in situ coupling).
	ClassSimulation = "simulation"
	// ClassAnalysis covers the analysis executables: stage A (busy) and
	// I^A (idle).
	ClassAnalysis = "analysis"
	// ClassStaging is the producer-side data movement into the data
	// transport layer: stage W, charged to the simulation's cores.
	ClassStaging = "staging"
	// ClassNetwork is the consumer-side read over the interconnect:
	// stage R, charged to the analysis's cores.
	ClassNetwork = "network"
)

// Tiers core-seconds can be credited to instead of spent.
const (
	// TierMemory is the in-process LRU result cache.
	TierMemory = "memory"
	// TierDisk is the on-disk content-addressed store.
	TierDisk = "disk"
	// TierFleet is a peer's cache reached through the pool fabric.
	TierFleet = "fleet"
	// TierPlanCache is the campaign World's frozen-plan reuse. Unlike the
	// cache tiers it is an overlapping credit: the job still executed (its
	// core-seconds are in the spent ledger), but planning was skipped.
	TierPlanCache = "plancache"
	// TierFastPath is the timeline kernel serving a job instead of the
	// event engine. Also an overlapping credit: the job's simulated
	// core-seconds are identical to an engine run and stay in the spent
	// ledger; what was avoided is dispatching the event loop.
	TierFastPath = "fastpath"
)

// CacheTiers are the tiers whose credits substitute for execution: each
// submission contributes its core-seconds to exactly one of spent or a
// cache tier, so spent + saved(CacheTiers) equals the cost of the same
// submissions with caching disabled.
var CacheTiers = []string{TierMemory, TierDisk, TierFleet}

// Split is busy vs idle core-seconds of one component class.
type Split struct {
	Busy float64 `json:"busy"`
	Idle float64 `json:"idle"`
}

// add accumulates o scaled by k.
func (s *Split) add(o Split, k float64) {
	s.Busy += o.Busy * k
	s.Idle += o.Idle * k
}

// JobLedger attributes one job's simulated core-seconds by component
// class. Staging and network are pure transfer stages, so their idle
// halves are structurally zero; the fields are kept for a uniform shape.
type JobLedger struct {
	Simulation Split `json:"simulation"`
	Analysis   Split `json:"analysis"`
	Staging    Split `json:"staging"`
	Network    Split `json:"network"`
}

// Classes returns the class names in the ledger's field order.
func Classes() [4]string {
	return [4]string{ClassSimulation, ClassAnalysis, ClassStaging, ClassNetwork}
}

// Splits returns the ledger's splits in the same order as Classes.
func (l JobLedger) Splits() [4]Split {
	return [4]Split{l.Simulation, l.Analysis, l.Staging, l.Network}
}

// Busy returns the total busy core-seconds across classes.
func (l JobLedger) Busy() float64 {
	return l.Simulation.Busy + l.Analysis.Busy + l.Staging.Busy + l.Network.Busy
}

// Idle returns the total idle core-seconds across classes.
func (l JobLedger) Idle() float64 {
	return l.Simulation.Idle + l.Analysis.Idle + l.Staging.Idle + l.Network.Idle
}

// Total returns busy + idle core-seconds across classes.
func (l JobLedger) Total() float64 { return l.Busy() + l.Idle() }

// addScaled accumulates o scaled by k, class by class.
func (l *JobLedger) addScaled(o JobLedger, k float64) {
	l.Simulation.add(o.Simulation, k)
	l.Analysis.add(o.Analysis, k)
	l.Staging.add(o.Staging, k)
	l.Network.add(o.Network, k)
}

// FromTrace builds a job ledger from an execution trace in one pass: each
// stage charges its component's cores for its duration to its class. That
// sum is the area under the class's core-occupancy timeline (the
// obs.Utilization integral over the trace's event stream) taken one
// rectangle at a time, so it needs no event stream. The result is a pure
// function of the trace: byte-identical traces (the engine's determinism
// guarantee) yield bit-identical ledgers. A component placed on no node
// holds no cores and charges nothing.
func FromTrace(tr *trace.EnsembleTrace) JobLedger {
	var byStage [trace.NumStages]float64
	if tr == nil {
		return FromStageCoreSeconds(byStage)
	}
	charge := func(c *trace.ComponentTrace) {
		if c == nil || len(c.Nodes) == 0 {
			return
		}
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				if st.Stage.Valid() {
					coreSec := float64(c.Cores) * st.Duration
					byStage[st.Stage] += coreSec
				}
			}
		}
	}
	for _, m := range tr.Members {
		charge(m.Simulation)
		for _, a := range m.Analyses {
			charge(a)
		}
	}
	return FromStageCoreSeconds(byStage)
}

// FromStageCoreSeconds builds a job ledger from core-seconds already
// summed per stage (indexed by trace.Stage), following the paper's
// six-stage cycle: S and I^S are the simulation's compute and
// coupling-idle time, W is the producer-side put into the DTL, R is the
// consumer-side get, A and I^A are the analysis's compute and idle time.
// Summed in FromTrace's order (components in trace order, each one's
// stages in order), the sums give FromTrace's ledger bit for bit.
func FromStageCoreSeconds(byStage [trace.NumStages]float64) JobLedger {
	return JobLedger{
		Simulation: Split{Busy: byStage[trace.StageS], Idle: byStage[trace.StageIS]},
		Analysis:   Split{Busy: byStage[trace.StageA], Idle: byStage[trace.StageIA]},
		Staging:    Split{Busy: byStage[trace.StageW]},
		Network:    Split{Busy: byStage[trace.StageR]},
	}
}

// WallClock accumulates the real-time cost of running a scope's jobs.
// Unlike the simulated sections it is not deterministic and is excluded
// from byte-identity comparisons.
type WallClock struct {
	// WorkerSeconds is wall time workers spent executing (or waiting on a
	// forwarded peer for) this scope's jobs.
	WorkerSeconds float64 `json:"workerSeconds"`
	// QueueWaitSeconds is wall time jobs spent enqueued before pickup.
	QueueWaitSeconds float64 `json:"queueWaitSeconds"`
	// RetryWastedSeconds is wall time spent on attempts that failed and
	// were retried — work the ledger charged but no result came from.
	RetryWastedSeconds float64 `json:"retryWastedSeconds"`
}

func (w *WallClock) add(o WallClock) {
	w.WorkerSeconds += o.WorkerSeconds
	w.QueueWaitSeconds += o.QueueWaitSeconds
	w.RetryWastedSeconds += o.RetryWastedSeconds
}

// Saved is core-seconds avoided, by tier. Memory, disk, and fleet are
// substituting credits (the submission did not execute); plancache and
// fastpath are overlapping credits on executed jobs (see the tier
// constants).
type Saved struct {
	Memory    float64 `json:"memory"`
	Disk      float64 `json:"disk"`
	Fleet     float64 `json:"fleet"`
	PlanCache float64 `json:"plancache"`
	FastPath  float64 `json:"fastpath"`
}

// CacheTotal returns the substituting credits: memory + disk + fleet.
func (s Saved) CacheTotal() float64 { return s.Memory + s.Disk + s.Fleet }

func (s *Saved) add(o Saved) {
	s.Memory += o.Memory
	s.Disk += o.Disk
	s.Fleet += o.Fleet
	s.PlanCache += o.PlanCache
	s.FastPath += o.FastPath
}

// tiers lists every tier in Saved's field order, CacheTiers first; an
// entry's counts are indexed alike.
var tiers = [...]string{TierMemory, TierDisk, TierFleet, TierPlanCache, TierFastPath}

// Simulated is the deterministic section of a snapshot: core-seconds in
// simulated time, spent and saved. Field order is fixed; byte-identity
// tests pin this section's JSON.
type Simulated struct {
	// Spent is the per-class ledger of executed submissions.
	Spent JobLedger `json:"spent"`
	// SpentTotal is Spent summed over classes and states.
	SpentTotal float64 `json:"spentTotal"`
	// Saved is core-seconds avoided per tier.
	Saved Saved `json:"saved"`
	// SavedCacheTotal is the substituting credits (memory+disk+fleet).
	// SpentTotal + SavedCacheTotal equals the cost of the same
	// submissions run uncached.
	SavedCacheTotal float64 `json:"savedCacheTotal"`
}

func (s *Simulated) add(o Simulated) {
	s.Spent.addScaled(o.Spent, 1)
	s.SpentTotal += o.SpentTotal
	s.Saved.add(o.Saved)
	s.SavedCacheTotal += o.SavedCacheTotal
}

// Snapshot is one scope's rollup at a point in time: a campaign, a node,
// or (after Merge) the fleet. JSON field order is fixed by declaration
// order and must stay stable — clients and goldens depend on it.
type Snapshot struct {
	// Jobs is the number of distinct job hashes the scope has seen.
	Jobs int `json:"jobs"`
	// Executed counts submissions whose core-seconds were spent.
	Executed int64 `json:"executed"`
	// CacheServed counts submissions served by a cache tier instead.
	CacheServed int64 `json:"cacheServed"`
	// Simulated is the deterministic core-second ledger.
	Simulated Simulated `json:"simulated"`
	// WallClock is the real-time cost (not deterministic).
	WallClock WallClock `json:"wallClock"`
}

// Merge sums per-node snapshots into a fleet rollup, in the given order.
// Callers pass nodes sorted by ID so the float accumulation order — and
// therefore the rollup bytes — are reproducible.
func Merge(snaps []Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out.Jobs += s.Jobs
		out.Executed += s.Executed
		out.CacheServed += s.CacheServed
		out.Simulated.add(s.Simulated)
		out.WallClock.add(s.WallClock)
	}
	return out
}

// entry is the per-hash record inside a Ledger. A hash identifies a
// job's content, so every submission of it shares one JobLedger; the
// counts record how many submissions executed vs were served per tier
// (indexed like tiers).
type entry struct {
	ledger JobLedger
	spent  int64
	saved  [len(tiers)]int64
}

// Ledger is a thread-safe rollup of job outcomes for one scope. Records
// arrive in completion order (nondeterministic under concurrency);
// Snapshot re-sums them in sorted-hash order so the rollup is
// deterministic anyway.
type Ledger struct {
	mu      sync.Mutex
	entries map[string]*entry
	wall    WallClock
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: make(map[string]*entry)}
}

func (l *Ledger) entryLocked(hash string, jl JobLedger) *entry {
	e, ok := l.entries[hash]
	if !ok {
		e = &entry{ledger: jl}
		l.entries[hash] = e
	}
	return e
}

// RecordSpent charges one executed submission of hash with its ledger.
func (l *Ledger) RecordSpent(hash string, jl JobLedger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entryLocked(hash, jl).spent++
}

// RecordSaved credits one submission of hash to tier. Unknown tiers are
// ignored.
func (l *Ledger) RecordSaved(hash string, jl JobLedger, tier string) {
	i := slices.Index(tiers[:], tier)
	if i < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entryLocked(hash, jl).saved[i]++
}

// RecordWall accumulates worker execution and queue-wait wall seconds.
func (l *Ledger) RecordWall(workerSec, queueWaitSec float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wall.WorkerSeconds += workerSec
	l.wall.QueueWaitSeconds += queueWaitSec
}

// RecordRetryWaste accumulates wall seconds burned on failed attempts.
func (l *Ledger) RecordRetryWaste(sec float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wall.RetryWastedSeconds += sec
}

// Snapshot rolls the ledger up. Entries are summed in sorted-hash order,
// each scaled by its multiplicity, so identical histories produce
// bit-identical simulated sections regardless of completion order.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	hashes := make([]string, 0, len(l.entries))
	for h := range l.entries {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	snap := Snapshot{Jobs: len(hashes), WallClock: l.wall}
	var saved [len(tiers)]float64
	for _, h := range hashes {
		e := l.entries[h]
		if e.spent > 0 {
			snap.Executed += e.spent
			snap.Simulated.Spent.addScaled(e.ledger, float64(e.spent))
		}
		total := e.ledger.Total()
		for i, n := range e.saved {
			if n != 0 {
				saved[i] += total * float64(n)
			}
		}
		snap.CacheServed += e.saved[0] + e.saved[1] + e.saved[2] // CacheTiers
	}
	snap.Simulated.Saved = Saved{Memory: saved[0], Disk: saved[1], Fleet: saved[2], PlanCache: saved[3], FastPath: saved[4]}
	snap.Simulated.SpentTotal = snap.Simulated.Spent.Total()
	snap.Simulated.SavedCacheTotal = snap.Simulated.Saved.CacheTotal()
	return snap
}
