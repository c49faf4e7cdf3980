package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/runtime"
)

// This file is the in-process fabric suite: several Services wired into
// one pool (each mounted on a loopback httptest server), exercising ring
// routing, the fleet cache tier, drain handoff, and the keystone
// invariant — a sharded campaign fingerprints identically to a
// single-node run, even when a peer is killed mid-campaign. The
// subprocess variant (real processes, real SIGKILL) is TestPool in
// cmd/ensembled.

type fabricNode struct {
	id   string
	svc  *Service
	pool *pool.Pool
	ts   *httptest.Server
	runs atomic.Int64 // local executions (runFn invocations)

	closeOnce sync.Once
}

// kill simulates a SIGKILL: stop accepting connections, sever the live
// ones, and tear the node down. In-flight forwards to this node fail
// with transport errors, exactly as with a dead process.
func (n *fabricNode) kill() {
	n.closeOnce.Do(func() {
		n.ts.Listener.Close()
		n.ts.CloseClientConnections()
		n.pool.Close()
		n.svc.Close()
	})
}

func (n *fabricNode) shutdown() {
	n.closeOnce.Do(func() {
		n.pool.Close()
		n.svc.Close()
		closeTestServer(n.ts)
	})
}

// startFabric brings up n Services joined into one pool. mutate, when
// non-nil, adjusts each node's service config before construction.
func startFabric(t *testing.T, n int, mutate func(i int, cfg *Config)) []*fabricNode {
	t.Helper()
	nodes := make([]*fabricNode, n)
	for i := 0; i < n; i++ {
		node := &fabricNode{id: fmt.Sprintf("n%d", i+1)}
		cfg := Config{Workers: 2}
		if mutate != nil {
			mutate(i, &cfg)
		}
		inner := cfg.runFn
		if inner == nil {
			inner = plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
				return Execute(spec)
			})
		}
		cfg.runFn = func(ctx context.Context, hash string, spec JobSpec) (*Result, runtime.RunInfo, error) {
			node.runs.Add(1)
			return inner(ctx, hash, spec)
		}
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var h atomic.Pointer[http.Handler]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hp := h.Load(); hp != nil {
				(*hp).ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		}))
		pcfg := pool.Config{
			SelfID:    node.id,
			Advertise: ts.URL,
			Heartbeat: 10 * time.Millisecond,
			Local:     svc,
			Permanent: IsPermanent,
		}
		if i > 0 {
			pcfg.Join = []string{nodes[0].ts.URL}
		}
		p, err := pool.New(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		handler := p.Handler()
		h.Store(&handler)
		svc.SetFabric(p)
		p.Start()
		node.svc, node.pool, node.ts = svc, p, ts
		nodes[i] = node
		t.Cleanup(node.shutdown)
	}
	waitFabricConverged(t, nodes)
	return nodes
}

// waitFabricConverged blocks until every node sees every other alive.
func waitFabricConverged(t *testing.T, nodes []*fabricNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			alive := 0
			for _, pi := range n.pool.Peers() {
				if pi.State == pool.StateAlive {
					alive++
				}
			}
			if alive != len(nodes) {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fabric never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// specOwnedBy scans seeds for an engine-class spec (jobFor under
// chaosSlowPlan) whose hash the fabric routes to the wanted node; a
// kernel-served spec would run on the submitter whoever owns it.
func specOwnedBy(t *testing.T, n *fabricNode, want string) JobSpec {
	t.Helper()
	slow := chaosSweep().FaultPlans[1]
	for seed := int64(1); seed < 1000; seed++ {
		spec := jobFor(t, seed)
		spec.Faults = slow
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := n.pool.Owner(hash); owner == want {
			return spec
		}
	}
	t.Fatalf("no seed < 1000 routes to %s", want)
	return JobSpec{}
}

// checkRouted asserts the cost rule on a campaign submitted to node
// sub: every kernel-served job ran on sub, and the engine jobs sharded
// (at least one was answered by a peer, through a forward or the fleet
// cache).
func checkRouted(t *testing.T, sub *fabricNode, res *CampaignResult) {
	t.Helper()
	peer := 0
	for _, c := range res.Candidates {
		for _, id := range c.JobIDs {
			j, ok := sub.svc.Job(id)
			if !ok {
				t.Fatalf("%s: job %s not found", sub.id, id)
			}
			engine := j.Spec().needsEngine()
			if !engine && j.Node() != sub.id {
				t.Errorf("kernel-served job %s (%s) ran on %q, want the submitter %s", id, c.Label, j.Node(), sub.id)
			}
			if engine && j.Node() != "" && j.Node() != sub.id {
				peer++
			}
		}
	}
	if peer == 0 {
		t.Errorf("no engine job submitted to %s ran on a peer; the campaign did not shard", sub.id)
	}
}

// The keystone invariant: a campaign sharded across three nodes must
// fingerprint byte-identically to a single-node run, and the work must
// actually shard (peers execute a share of the engine jobs, while the
// kernel-served ones run on the submitter). Its ledger must reconcile
// too: spent plus cache-avoided core-seconds equal the uncached
// single-node cost, for the sharded run and for its re-post on a second
// node, which the caches answer for the engine jobs and which re-runs
// the kernel-served ones.
func TestFabricShardedCampaignMatchesSingleNode(t *testing.T) {
	refFP, refCost := chaosFingerprint(t)
	if refCost <= 0 {
		t.Fatalf("reference campaign charged %v core-seconds", refCost)
	}
	nodes := startFabric(t, 3, nil)

	sweep := chaosSweep()
	sweep.Campaign = "sharded"
	res, err := RunCampaign(context.Background(), nodes[0].svc, sweep)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != refFP {
		t.Errorf("sharded campaign fingerprint %s != single-node %s", fp, refFP)
	}
	remote := nodes[1].runs.Load() + nodes[2].runs.Load()
	if remote == 0 {
		t.Error("no job executed on a peer; the campaign did not shard")
	}
	t.Logf("executions: n1=%d n2=%d n3=%d",
		nodes[0].runs.Load(), nodes[1].runs.Load(), nodes[2].runs.Load())
	checkRouted(t, nodes[0], res)

	sweep.Campaign = "repost"
	repost, err := RunCampaign(context.Background(), nodes[1].svc, sweep)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, nodes[1], repost)
	for i, id := range []string{"sharded", "repost"} {
		acct, _ := nodes[i].svc.CampaignAccounting(id)
		if got := acct.Simulated.SpentTotal + acct.Simulated.SavedCacheTotal; math.Abs(got-refCost) > 1e-9*refCost {
			t.Errorf("%s campaign spent+saved %v core-seconds, want the uncached %v", id, got, refCost)
		}
	}
}

// countingFabric counts the hops a service asks of its fabric.
type countingFabric struct {
	Fabric
	lookups, executes atomic.Int64
}

func (f *countingFabric) Lookup(ctx context.Context, peer, hash string) ([]byte, bool, error) {
	f.lookups.Add(1)
	return f.Fabric.Lookup(ctx, peer, hash)
}

func (f *countingFabric) Execute(ctx context.Context, peer, hash string, specJSON []byte, label string) ([]byte, error) {
	f.executes.Add(1)
	return f.Fabric.Execute(ctx, peer, hash, specJSON, label)
}

// The cost rule: a kernel-served job runs on the node that received it,
// with no fleet-cache lookup and no forward, whoever owns its hash — a
// hop costs about what the run does. The results cannot tell: the
// campaign fingerprints like a single-node run, and a re-post on a
// second node re-runs there too.
func TestFabricKernelJobsStayLocal(t *testing.T) {
	refFP, _ := sweepFingerprint(t, kernelSweep())
	nodes := startFabric(t, 3, nil)
	fabs := make([]*countingFabric, len(nodes))
	for i, n := range nodes {
		fabs[i] = &countingFabric{Fabric: n.pool}
		n.svc.SetFabric(fabs[i])
	}
	hops := func() (n int64) {
		for _, f := range fabs {
			n += f.lookups.Load() + f.executes.Load()
		}
		return n
	}

	for i, sub := range nodes[:2] {
		sweep := kernelSweep()
		sweep.Campaign = fmt.Sprintf("local-%d", i)
		res, err := RunCampaign(context.Background(), sub.svc, sweep)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := res.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != refFP {
			t.Errorf("%s: fingerprint %s != single-node %s", sub.id, fp, refFP)
		}
		if got := sub.runs.Load(); got != int64(res.Jobs) {
			t.Errorf("%s ran %d of its %d jobs", sub.id, got, res.Jobs)
		}
		if n := hops(); n != 0 {
			t.Fatalf("after the campaign on %s: %d fleet lookups and forwards, want 0", sub.id, n)
		}
	}
	if got := nodes[2].runs.Load(); got != 0 {
		t.Errorf("n3 received no campaign but ran %d jobs", got)
	}
}

// A result cached on its owner must answer a peer's submission through
// the fleet cache tier without executing anywhere.
func TestFabricPeerCacheHit(t *testing.T) {
	nodes := startFabric(t, 2, nil)
	spec := specOwnedBy(t, nodes[0], "n2")

	// Prime the owner's cache with a local run.
	j2, err := nodes[1].svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	runsBefore := nodes[0].runs.Load()
	j1, err := nodes[0].svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != want.Objective || got.Hash != want.Hash {
		t.Fatalf("peer-cache result %+v != owner result %+v", got.Objective, want.Objective)
	}
	if nodes[0].runs.Load() != runsBefore {
		t.Error("requester executed locally despite the peer-cache hit")
	}
	// The job's wire status names the node that answered it.
	w := httptest.NewRecorder()
	NewServer(nodes[0].svc).Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+j1.ID, nil))
	var js jobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil || js.Node != "n2" {
		t.Errorf("GET /v1/jobs/%s: node %q (%v), want n2", j1.ID, js.Node, err)
	}
	if hits := nodes[0].svc.Stats().CacheHits; hits == 0 {
		t.Error("fleet cache hit not accounted in service stats")
	}

	// The kernel-served twin skips the fleet tier even when the owner
	// holds it: it re-runs on the submitter, which costs about one hop.
	twin := spec
	twin.Faults = nil
	jp, err := nodes[1].svc.Submit(context.Background(), twin, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jp.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	runsBefore = nodes[0].runs.Load()
	jt, err := nodes[0].svc.Submit(context.Background(), twin, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jt.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if nodes[0].runs.Load() != runsBefore+1 || jt.Node() != "n1" {
		t.Errorf("kernel-served job ran on %q (%d local runs), want one run on n1",
			jt.Node(), nodes[0].runs.Load()-runsBefore)
	}
}

// Killing a peer mid-campaign must not change the campaign's science:
// its jobs re-route to the survivors (via the retry policy on the
// rebalanced ring) and the fingerprint still matches the single-node
// reference. The killed peer owns a share of the engine jobs, so the
// kill strands forwarded work.
func TestFabricPeerLossMidCampaignStillMatches(t *testing.T) {
	refFP, _ := chaosFingerprint(t)
	nodes := startFabric(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Retry = RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
			}
		}
		// Slow the jobs slightly so the kill lands mid-campaign, with
		// forwarded runs in flight on the victim.
		cfg.runFn = plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
			time.Sleep(3 * time.Millisecond)
			return Execute(spec)
		})
	})
	cands, err := chaosSweep().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, c := range cands {
		for _, spec := range c.Specs {
			h, _ := spec.Hash()
			if owner, _ := nodes[0].pool.Owner(h); spec.needsEngine() && owner == "n3" {
				owned++
			}
		}
	}
	if owned == 0 {
		t.Fatal("the victim n3 owns no engine job of the sweep")
	}

	type out struct {
		res *CampaignResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := RunCampaign(context.Background(), nodes[0].svc, chaosSweep())
		done <- out{res, err}
	}()

	// Kill n3 once the campaign is demonstrably in flight.
	deadline := time.Now().Add(20 * time.Second)
	for nodes[0].svc.Stats().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never got under way")
		}
		time.Sleep(time.Millisecond)
	}
	nodes[2].kill()

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	fp, err := o.res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != refFP {
		t.Errorf("fingerprint after peer loss %s != single-node %s", fp, refFP)
	}
	checkRouted(t, nodes[0], o.res)
	// The failure detector declares the kill — via a failed forward (data
	// plane) or missed beats (sweep) — within a few beat intervals.
	deadline = time.Now().Add(10 * time.Second)
	for nodes[0].pool.Membership().State("n3") != pool.StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("killed peer state %s, want dead",
				nodes[0].pool.Membership().State("n3"))
		}
		time.Sleep(time.Millisecond)
	}
}

// SIGTERM with peers: pending jobs leave through the ring instead of
// waiting for a local resume — each drained job finishes cancelled with
// a journaled terminal record, and the accepting peer runs it.
func TestServiceDrainQueuedToPeers(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var gateHash atomic.Value // hash of the spec that blocks on gate
	gateHash.Store("")
	var once sync.Once
	nodes := startFabric(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.JournalPath = filepath.Join(dir, "journal.wal")
			cfg.CacheDir = filepath.Join(dir, "cache")
			cfg.runFn = plainRun(func(_ context.Context, spec JobSpec) (*Result, error) {
				if h, _ := spec.Hash(); h == gateHash.Load() {
					<-gate // the blocker occupies the only worker
				}
				return Execute(spec)
			})
		}
	})
	defer once.Do(func() { close(gate) })

	// The blocker must execute locally (not forward), so pick a spec the
	// ring assigns to n1 and gate exactly that hash.
	blockSpec := specOwnedBy(t, nodes[0], "n1")
	blockHash, err := blockSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	gateHash.Store(blockHash)
	blocker, err := nodes[0].svc.Submit(context.Background(), blockSpec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The drain must only see queued jobs, so wait until the blocker has
	// entered runFn (runs counts the entry) and therefore holds the worker.
	deadlineRun := time.Now().Add(10 * time.Second)
	for nodes[0].runs.Load() == 0 {
		if time.Now().After(deadlineRun) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(time.Millisecond)
	}
	var queued []*Job
	for seed := int64(2); len(queued) < 3; seed++ {
		spec := jobFor(t, seed)
		if h, _ := spec.Hash(); h == blockHash {
			continue
		}
		j, err := nodes[0].svc.Submit(context.Background(), spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	handed := nodes[0].svc.DrainQueuedToPeers(context.Background())
	if handed != len(queued) {
		t.Fatalf("handed %d jobs, want %d", handed, len(queued))
	}
	for _, j := range queued {
		if got := j.Status(); got != StatusCancelled {
			t.Errorf("drained job %s status %s, want cancelled", j.ID, got)
		}
		if reason := j.Reason(); !strings.HasPrefix(reason, "drained to peer ") {
			t.Errorf("drained job %s reason %q", j.ID, reason)
		}
		if node := j.Node(); node != "n2" {
			t.Errorf("drained job %s node %q, want n2", j.ID, node)
		}
	}

	// The peer actually runs the drained work.
	deadline := time.Now().Add(20 * time.Second)
	for nodes[1].svc.Stats().Completed < int64(len(queued)) {
		if time.Now().After(deadline) {
			nodes[1].svc.mu.Lock()
			for _, j := range nodes[1].svc.jobs {
				t.Logf("n2 job %s label=%q status=%s reason=%q node=%q attempts=%d",
					j.ID, j.Label, j.Status(), j.Reason(), j.Node(), j.attempts)
			}
			nodes[1].svc.mu.Unlock()
			t.Logf("n2 stats: %+v", nodes[1].svc.Stats())
			t.Fatalf("peer completed %d of %d drained jobs",
				nodes[1].svc.Stats().Completed, len(queued))
		}
		time.Sleep(time.Millisecond)
	}

	// Let the blocker finish, close the first node, and reopen its
	// journal: the drained jobs were journaled terminal, so nothing is
	// pending for local resume.
	once.Do(func() { close(gate) })
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	nodes[0].shutdown()
	svc, err := NewService(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "journal.wal"),
		CacheDir:    filepath.Join(dir, "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().JournalReplayed; got != 0 {
		t.Errorf("restart replayed %d drained jobs, want 0", got)
	}
}

// With retries disabled, a forward to a lost peer falls back to local
// execution instead of failing the job.
func TestFabricLocalFallbackWithoutRetries(t *testing.T) {
	nodes := startFabric(t, 2, nil)
	spec := specOwnedBy(t, nodes[0], "n2")
	nodes[1].kill()

	j, err := nodes[0].svc.Submit(context.Background(), spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed instead of falling back locally: %v", err)
	}
	if res == nil {
		t.Fatal("nil result from local fallback")
	}
	if node := j.Node(); node != "n1" {
		t.Errorf("fallback job node %q, want n1", node)
	}
}

// wrongJobFabric is a pool in which a peer owns every hash and answers
// for another job: an owner that decoded the spec differently (say,
// without a field it does not know) computed another hash. lookup, when
// set, is its fleet-cache hit; execute is its forwarded answer.
type wrongJobFabric struct{ lookup, execute []byte }

func (wrongJobFabric) NodeID() string                        { return "n1" }
func (wrongJobFabric) Owner(string) (peer string, self bool) { return "n2", false }
func (f wrongJobFabric) Lookup(context.Context, string, string) ([]byte, bool, error) {
	return f.lookup, f.lookup != nil, nil
}
func (f wrongJobFabric) Execute(context.Context, string, string, []byte, string) ([]byte, error) {
	return f.execute, nil
}
func (wrongJobFabric) Handoff(context.Context, string, []byte, string, int) (string, error) {
	return "", errors.New("no handoff")
}

// A peer's result for another hash is a miss, like an older-generation
// payload: the job runs here and finishes with its own hash and ledger.
func TestFabricAnswerForAnotherHashIsAMiss(t *testing.T) {
	slow := chaosSweep().FaultPlans[1]
	spec, other := jobFor(t, 1), jobFor(t, 2)
	spec.Faults, other.Faults = slow, slow
	want, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := Execute(other)
	if err != nil {
		t.Fatal(err)
	}
	wrongJSON, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	for name, fab := range map[string]wrongJobFabric{
		"fleet lookup": {lookup: wrongJSON, execute: wrongJSON},
		"forward":      {execute: wrongJSON},
	} {
		svc, err := NewService(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		svc.SetFabric(fab)
		j, err := svc.Submit(context.Background(), spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		svc.Close()
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case res.Hash != j.Hash || res.Ledger != want.Ledger || res.Objective != want.Objective:
			t.Errorf("%s: job %s finished with the result of %s", name, j.Hash, res.Hash)
		case j.Node() != "n1":
			t.Errorf("%s: job ran on %q, want n1", name, j.Node())
		}
	}
}
