package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"ensemblekit/internal/runtime"
)

// Fabric is the service's view of the distributed pool (implemented by
// *pool.Pool; the interfaces mirror each other so neither package
// imports the other — cmd/ensembled wires them together). All payloads
// are opaque JSON: the pool routes and transports, the service decides
// what the bytes mean.
type Fabric interface {
	// NodeID is this node's advertised identity in the pool.
	NodeID() string
	// Owner resolves the consistent-hash ring owner of a job hash; self
	// reports whether this node owns it.
	Owner(hash string) (peer string, self bool)
	// Lookup consults a peer's result cache (the fleet cache tier).
	// found=false with nil error is a clean miss.
	Lookup(ctx context.Context, peer, hash string) (res []byte, found bool, err error)
	// Execute forwards a job to its owner and blocks for the result.
	Execute(ctx context.Context, peer, hash string, specJSON []byte, label string) ([]byte, error)
	// Handoff offers a queued job to the hash's ring successors for
	// asynchronous execution (the drain path), returning the acceptor.
	Handoff(ctx context.Context, hash string, specJSON []byte, label string, priority int) (string, error)
}

// SetFabric attaches the node to a pool: engine job executions route by
// ring ownership (local when this node owns the hash, peer cache lookup
// then forwarded execution otherwise), kernel-served jobs run where they
// were submitted (see runRouted), and job events carry the executing
// node's ID. Call it before serving traffic; a nil fabric (the default)
// keeps every execution local.
func (s *Service) SetFabric(f Fabric) {
	s.mu.Lock()
	s.fabric = f
	s.mu.Unlock()
}

// fabricSnapshot reads the fabric under the service lock.
func (s *Service) fabricSnapshot() Fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fabric
}

// runRouted executes one job where it is cheapest. A job the timeline
// kernel serves (every spec but the needsEngine ones) runs on the node
// that received it: its run costs about what one hop to a peer costs, so
// moving it saves nothing, and its result is a pure function of the spec
// wherever it runs. An engine job routes by ring ownership. Self-owned
// hashes (and the solo, fabric-less configuration) run locally through
// the shielded runner. Peer-owned hashes first consult the owner's
// cache — the fleet tier, making every node's results reachable from
// every other — then forward the execution to the owner, which dedups
// them against its own in-flight work. Failure handling leans on the
// existing retry machinery: a transport failure marks the peer dead
// (the pool rebalances the ring) and surfaces as a transient error, so
// the retry re-routes to the new owner; with retries disabled the job
// falls back to local execution instead, so a peer loss can never fail
// a job outright.
func (s *Service) runRouted(ctx context.Context, j *Job) (*Result, runtime.RunInfo, error) {
	var none runtime.RunInfo // only a local run knows how it was served
	fab := s.fabricSnapshot()
	if fab == nil {
		return s.runShielded(ctx, j)
	}
	owner, self := fab.Owner(j.Hash)
	if self || !j.spec.needsEngine() {
		j.setNode(fab.NodeID())
		return s.runShielded(ctx, j)
	}
	j.setNode(owner)
	// Fleet cache tier: the owner may already hold this result. Lookup
	// errors are not fatal — the forward (or its retry) decides the
	// job's fate.
	if b, found, err := fab.Lookup(ctx, owner, j.Hash); err == nil && found {
		res, derr := peerResult(b, j.Hash)
		if derr == nil {
			j.setServed(servedFleet)
			return res, none, nil
		}
		s.log.Warn("pool: unusable peer cache entry; forwarding",
			"peer", owner, "hash", j.Hash, "err", derr.Error())
	}
	specJSON, err := j.spec.CanonicalJSON()
	if err != nil {
		return nil, none, Permanent(err)
	}
	b, err := fab.Execute(ctx, owner, j.Hash, specJSON, j.Label)
	if err == nil {
		res, derr := peerResult(b, j.Hash)
		if derr == nil {
			j.setServed(servedForward)
			return res, none, nil
		}
		// An older-generation, corrupt or wrong-job payload is a miss: run
		// it here.
		err = fmt.Errorf("unusable result: %w", derr)
	} else {
		if ctx.Err() != nil {
			return nil, none, ctx.Err()
		}
		// The peer executed the job and failed deterministically: that
		// verdict is as permanent here as it would be locally.
		var pe interface{ IsPermanentRemote() bool }
		if errors.As(err, &pe) && pe.IsPermanentRemote() {
			return nil, none, Permanent(err)
		}
		if s.cfg.Retry.MaxAttempts > 1 {
			// Transient (peer died or refused): let the retry policy
			// re-enqueue; by then the ring has rebalanced and the retry
			// routes to the hash's new owner.
			return nil, none, err
		}
		// No retry budget: a lost peer must not lose the job.
	}
	s.log.Warn("pool: forward failed; executing locally",
		"peer", owner, "hash", j.Hash, "err", err.Error())
	j.setNode(fab.NodeID())
	return s.runShielded(ctx, j)
}

// peerResult decodes a peer's answer for hash. A result for another hash
// is as much a miss as an older-generation payload: the peer ran some
// other job, e.g. because it decoded the spec without a field it does
// not know.
func peerResult(b []byte, hash string) (*Result, error) {
	res, err := decodeResult(b)
	if err == nil && res.Hash != hash {
		return nil, fmt.Errorf("result is for hash %s", res.Hash)
	}
	return res, err
}

// CachedResultJSON serves this node's tier of the fleet cache: the
// cached result for hash as JSON, without ever triggering execution.
// It satisfies the pool's Local interface.
func (s *Service) CachedResultJSON(hash string) ([]byte, bool) {
	s.mu.Lock()
	res, fromDisk, err := s.cache.get(hash)
	if fromDisk && err == nil {
		s.metrics.setCacheLocked(s.cache.stats())
	}
	s.mu.Unlock()
	if err != nil || res == nil {
		return nil, false
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, false
	}
	return b, true
}

// NodeAccountingJSON returns this node's resource-ledger snapshot as
// JSON; the pool's federation endpoints fetch it from every peer and sum
// the snapshots into the fleet rollup. It satisfies the pool's Local
// interface.
func (s *Service) NodeAccountingJSON() []byte {
	b, err := json.Marshal(s.NodeAccounting())
	if err != nil {
		return []byte("{}")
	}
	return b
}

// remoteFlight is the owner-side singleflight for forwarded executions:
// concurrent forwards of one hash (from different requesters) share one
// run. Waiters read res/err only after done closes.
type remoteFlight struct {
	done chan struct{}
	res  []byte
	err  error
}

// ExecuteForwardedJSON runs a forwarded spec to completion on this node
// — the owner side of the pool's Execute. It satisfies the pool's Local
// interface. The label is requester-side display metadata; the owner
// keys on the hash.
//
// Forwarded work deliberately bypasses the local job queue: it runs in
// the calling (handler) goroutine, bounded by the pool's forward
// semaphore. Routing it through the queue would let two nodes that
// forward to each other fill both worker pools with jobs waiting on
// each other — a distributed deadlock. Dedup still holds fleet-wide:
// the cache answers known hashes, a hash the local queue already owns
// attaches to that job, and concurrent forwards of one hash share a
// single run via the remote-flight table.
func (s *Service) ExecuteForwardedJSON(ctx context.Context, specJSON []byte, _ string) ([]byte, error) {
	spec, err := decodeSpec(specJSON)
	if err != nil {
		return nil, Permanent(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, Permanent(err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	res, _, shared, err := s.resolveLocked(hash)
	fl, flying := s.remoteFlights[hash]
	if err == nil && res == nil && shared == nil && !flying {
		fl = &remoteFlight{done: make(chan struct{})}
		s.remoteFlights[hash] = fl
	}
	s.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case res != nil:
		return json.Marshal(res)
	case shared != nil:
		// The local queue already owns this hash; attach to it.
		res, err := shared.Wait(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case flying:
		select {
		case <-fl.done:
			return fl.res, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	runStart := time.Now()
	res, info, err := s.cfg.runFn(ctx, hash, spec)
	if err == nil {
		s.storeResult(hash, res)
		// The cores burned here: charge the node ledger (the requester
		// charges its campaign; see charge). The fast-path and plan-cache
		// credits land on this node too — the requester has no RunInfo
		// for a forwarded run.
		s.acctSpent(nil, hash, res.Ledger, true)
		s.acct.node.RecordWall(time.Since(runStart).Seconds(), 0)
		s.acctRunCredits(nil, hash, res.Ledger, info)
		fl.res, err = json.Marshal(res)
	}
	fl.err = err
	s.mu.Lock()
	delete(s.remoteFlights, hash)
	s.mu.Unlock()
	close(fl.done)
	return fl.res, fl.err
}

// SubmitJSON admits a drained spec from a departing peer for
// asynchronous local execution (non-blocking: a full queue bounces the
// handoff so the drainer tries the next ring successor). It satisfies
// the pool's Local interface.
func (s *Service) SubmitJSON(specJSON []byte, label string, priority int) error {
	spec, err := decodeSpec(specJSON)
	if err != nil {
		return err
	}
	_, err = s.Submit(context.Background(), spec, SubmitOptions{
		Label:    label,
		Priority: priority,
	})
	return err
}

// DrainQueuedToPeers forwards this node's pending (queued and
// retry-parked, not executing) jobs to their ring successors — the
// SIGTERM drain path when peers are available. A handed-off job
// finishes locally as cancelled with a journaled "drained to peer"
// terminal record, so the next local process does NOT also resume it:
// exactly one node owns the work afterwards. Jobs no peer accepts go
// back to the queue and take the journal-resume path on the next start.
// Returns how many jobs were handed off.
func (s *Service) DrainQueuedToPeers(ctx context.Context) int {
	fab := s.fabricSnapshot()
	if fab == nil {
		return 0
	}
	s.mu.Lock()
	jobs := s.takeQueuedLocked()
	s.mu.Unlock()
	// Admission order keeps the handoff deterministic and fair.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })

	handed := 0
	for _, j := range jobs {
		specJSON, err := j.spec.CanonicalJSON()
		var peer string
		if err == nil {
			peer, err = fab.Handoff(ctx, j.Hash, specJSON, j.Label, j.Priority)
		}
		if err != nil {
			// Keep it for the journal-resume path: back in the queue (a
			// job that was parked in a backoff gives up the rest of its
			// delay), or cancelled with the shutdown reason if Close got
			// there first.
			s.log.Warn("pool: drain handoff failed; keeping job for resume",
				"job", j.ID, "hash", j.Hash, "err", err.Error())
			s.mu.Lock()
			s.admitting++
			s.mu.Unlock()
			s.enqueue(j)
			continue
		}
		handed++
		j.setNode(peer)
		s.transition(j, edge{to: stateCancelled, err: fmt.Errorf("drained to peer %s", peer)})
	}
	if handed > 0 {
		s.log.Info("pool: drained queued jobs to peers",
			"handed", handed, "kept", len(jobs)-handed)
	}
	return handed
}
