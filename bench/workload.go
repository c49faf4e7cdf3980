//go:build linux

package main

import (
	"encoding/json"
	"fmt"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/placement"
)

// Every campaign of every workload is the paper's Table 2 sweep: 7
// placements × 3 seeds. The workloads differ in how deep each job is and
// in how much work campaigns share, never in the sweep's shape, so a
// per-job cost compares across them.
const (
	sweepCandidates = 7
	sweepSeeds      = 3
	sweepJobs       = sweepCandidates * sweepSeeds

	shallowSteps = 8
	deepSteps    = 128
	deepJitter   = 0.02

	// warmSweeps is the working set of the warm workload: small enough
	// that every result stays in the 256 MiB memory tier.
	warmSweeps = 16
	poolNodes  = 3

	// primeClient is the client index set-up campaigns are generated
	// under, so they never collide with a measured client's keys.
	primeClient = 0xFF
)

// sweepSpec is one generated campaign: everything the server sees of it.
type sweepSpec struct {
	Name   string
	Steps  int
	Seeds  [sweepSeeds]int64
	Jitter float64
}

// request is one step of a client's script: a campaign and the node it
// is POSTed to.
type request struct {
	node  int
	sweep sweepSpec
}

// wireRequest fixes the field order of the POST body, so one sweepSpec
// always encodes to the same bytes.
type wireRequest struct {
	Name    string   `json:"name"`
	Configs []string `json:"configs"`
	Steps   int      `json:"steps"`
	Seeds   []int64  `json:"seeds"`
	Sim     *wireSim `json:"sim,omitempty"`
}

type wireSim struct {
	Jitter float64 `json:"jitter"`
}

// body encodes the campaign as a POST /v1/campaigns request.
func (s sweepSpec) body() []byte {
	req := wireRequest{Name: s.Name, Configs: []string{"table2"}, Steps: s.Steps, Seeds: s.Seeds[:]}
	if s.Jitter != 0 {
		req.Sim = &wireSim{Jitter: s.Jitter}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return b
}

// sweep is the same campaign as the in-process type the reference
// evaluation runs: what the server's resolve step expands "table2" to.
func (s sweepSpec) sweep() campaign.Sweep {
	return campaign.Sweep{
		Name:       s.Name,
		Placements: placement.ConfigsTable2(),
		Seeds:      s.Seeds[:],
		Steps:      s.Steps,
		Sim:        campaign.SimConfig{Jitter: s.Jitter},
	}
}

// splitmix64 spreads the run seed over the key space, so neighbouring
// seeds do not produce neighbouring job seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// freshSeeds returns three job seeds no other (client, k) of the same run
// gets: 20 bits of the run seed, 8 of the client and 35 for three seeds
// per 32-bit campaign index. A job's seed is part of its spec hash, so
// fresh seeds mean a guaranteed cache miss even where (without jitter)
// they do not change the simulated result.
func freshSeeds(seed int64, client, k int) [sweepSeeds]int64 {
	base := int64(splitmix64(uint64(seed))&0xFFFFF)<<43 | int64(client&0xFF)<<35 | int64(uint32(k))*sweepSeeds
	var out [sweepSeeds]int64
	for i := range out {
		out[i] = base + int64(i) + 1
	}
	return out
}

// workload is one traffic mix: how many server processes it runs
// against, which campaigns set-up submits before the window, and the pure
// function from (seed, client, k) to a client's k-th request.
type workload struct {
	name  string
	why   string
	nodes int
	// prime lists the set-up campaigns: warm-up for the cold workloads,
	// the working set for the warm one.
	prime func(seed int64) []request
	gen   func(seed int64, client, k int) request
}

func coldSweep(name string, steps int, jitter float64) func(int64, int, int) request {
	return func(seed int64, client, k int) request {
		return request{sweep: sweepSpec{
			Name:   fmt.Sprintf("%s/c%d/k%d", name, client, k),
			Steps:  steps,
			Seeds:  freshSeeds(seed, client, k),
			Jitter: jitter,
		}}
	}
}

// primeWith returns a prime function submitting gen's first n requests
// under the set-up client.
func primeWith(gen func(int64, int, int) request, n int) func(int64) []request {
	return func(seed int64) []request {
		out := make([]request, n)
		for k := range out {
			out[k] = gen(seed, primeClient, k)
		}
		return out
	}
}

func warmRequest(seed int64, i int) request {
	return request{sweep: sweepSpec{
		Name:  fmt.Sprintf("warm/s%d", i),
		Steps: shallowSteps,
		Seeds: freshSeeds(seed, primeClient, i),
	}}
}

// genWarm re-posts the primed sweeps round-robin; the two clients start
// half a cycle apart so they do not ask for the same sweep in lockstep.
func genWarm(seed int64, client, k int) request {
	return warmRequest(seed, (client*warmSweeps/2+k)%warmSweeps)
}

// genPool alternates a fresh shallow sweep (even k) with a re-post of it
// on the next node (odd k), walking the three nodes in turn.
func genPool(seed int64, client, k int) request {
	fresh := k &^ 1
	r := coldSweep("pool3-mix", shallowSteps, 0)(seed, client, fresh)
	r.node = k % poolNodes
	return r
}

var workloads = func() []workload {
	shallow := coldSweep("shallow-cold", shallowSteps, 0)
	deep := coldSweep("deep-cold", deepSteps, deepJitter)
	return []workload{
		{
			name:  "shallow-cold",
			why:   "21 never-repeated 8-step jobs per campaign: every job misses and runs ~60us, so spec, service, events, HTTP and tracing do the work; write side of the cache",
			nodes: 1,
			prime: primeWith(shallow, 8),
			gen:   shallow,
		},
		{
			name:  "deep-cold",
			why:   "same sweep at 128 steps with jitter: same service work per job, 16x the events, so runtime, sim, obs and span bridging dominate; jitter bypasses the fast path",
			nodes: 1,
			prime: primeWith(deep, 4),
			gen:   deep,
		},
		{
			name:  "warm",
			why:   "16 primed sweeps re-posted round-robin: 100% memory-tier hits, no queue, worker or DES; read side of the cache, which a DES or queue change must not move",
			nodes: 1,
			prime: func(seed int64) []request {
				out := make([]request, warmSweeps)
				for i := range out {
					out[i] = warmRequest(seed, i)
				}
				return out
			},
			gen: genWarm,
		},
		{
			name:  "pool3-mix",
			why:   "3-node pool, fresh sweep then its re-post on the next node: forwards and fleet-cache lookups cross the fabric, which the single-node workloads bypass",
			nodes: poolNodes,
			prime: primeWith(genPool, 2*poolNodes),
			gen:   genPool,
		},
	}
}()

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
