package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// Local is the pool's view of the node's own campaign service. The pool
// moves opaque spec/result JSON between peers; everything
// campaign-shaped happens behind this interface, which keeps the import
// graph acyclic (campaign imports nothing from pool either — it defines
// a mirror Fabric interface that *Pool satisfies).
type Local interface {
	// CachedResultJSON returns the locally cached result for a job hash
	// as JSON, or ok=false on a miss. It must not trigger execution.
	CachedResultJSON(hash string) (res []byte, ok bool)
	// ExecuteForwardedJSON runs a forwarded spec to completion and
	// returns the result JSON. It owns dedup against local in-flight
	// work and admission to the local cache.
	ExecuteForwardedJSON(ctx context.Context, specJSON []byte, label string) ([]byte, error)
	// SubmitJSON enqueues a drained spec for asynchronous local
	// execution (non-blocking admission; an error bounces the handoff).
	SubmitJSON(specJSON []byte, label string, priority int) error
	// NodeAccountingJSON returns the node's resource-ledger snapshot
	// (an accounting.Snapshot) as JSON — the per-node input to the
	// /v1/pool/accounting fleet rollup.
	NodeAccountingJSON() []byte
}

// RemoteError is a failure reported by a peer over the wire (as opposed
// to a transport failure reaching it). Permanent mirrors the executing
// node's classification so the requester's retry policy treats a
// deterministic simulation error the same as a local one.
type RemoteError struct {
	// Peer is the node that reported the failure.
	Peer string
	// StatusCode is the HTTP status the peer answered with.
	StatusCode int
	// Permanent reports that retrying the job cannot succeed.
	Permanent bool
	// Msg is the peer's error message.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("pool: peer %s: %s", e.Peer, e.Msg)
}

// IsPermanentRemote lets callers classify the error without importing
// this package (errors.As against a local interface).
func (e *RemoteError) IsPermanentRemote() bool { return e.Permanent }

// Config wires a Pool.
type Config struct {
	// SelfID is the node's advertised identity ("n1"). Required.
	SelfID string
	// Advertise is the base URL peers reach this node at
	// ("http://127.0.0.1:8080"). Required.
	Advertise string
	// Join lists seed peer base URLs to register with at startup.
	// Unreachable seeds are retried every heartbeat until first contact.
	Join []string
	// Heartbeat is the beat interval (default 1s). A peer silent for
	// 3 beats turns suspect, and after 9 beats dead (out of the ring).
	Heartbeat time.Duration
	// Local is the node's campaign service. Required.
	Local Local
	// Permanent classifies an execution error as non-retryable so the
	// wire protocol can carry the distinction (nil = all transient).
	Permanent func(error) bool
	// Metrics, Logger, Tracer instrument the pool (all optional,
	// nil-safe).
	Metrics *telemetry.Registry
	Logger  *telemetry.Logger
	Tracer  *tracing.Tracer
}

func (c Config) normalized() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	return c
}

// Pool is one node's handle on the fabric: the membership view, the
// ring built over it, the peer HTTP client, and the handlers peers call.
// All methods are safe for concurrent use.
type Pool struct {
	cfg    Config
	mem    *Membership
	client *http.Client
	log    *telemetry.Logger
	tracer *tracing.Tracer
	m      poolMetrics

	// sem bounds concurrently served forwarded executions to GOMAXPROCS.
	// Forwarded work runs in handler goroutines behind it, NOT through
	// the local worker queue: two nodes forwarding to each other through
	// full queues would deadlock their worker pools.
	sem chan struct{}

	ringMu sync.Mutex
	ring   *Ring

	// joinedOnce latches after the first successful contact with any
	// seed; Ready gates on it so a node configured to join reports
	// unready until it actually has.
	joinedOnce atomic.Bool

	// seedMu guards seeds still awaiting first contact.
	seedMu sync.Mutex
	seeds  []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// poolMetrics bundles the pool_* Prometheus handles (all nil no-ops
// when Config.Metrics is nil).
type poolMetrics struct {
	peers          *telemetry.GaugeVec // by state
	ringMembers    *telemetry.Gauge
	ringRebuilds   *telemetry.Counter
	beatsSent      *telemetry.Counter
	beatErrors     *telemetry.Counter
	beatsRecv      *telemetry.Counter
	joinsRecv      *telemetry.Counter
	lookups        *telemetry.Counter
	lookupHits     *telemetry.Counter
	lookupErrors   *telemetry.Counter
	cacheServed    *telemetry.CounterVec // by result
	forwards       *telemetry.Counter
	forwardErrs    *telemetry.Counter
	served         *telemetry.Counter
	serveErrs      *telemetry.Counter
	handoffs       *telemetry.Counter
	handoffErrs    *telemetry.Counter
	handoffsRecv   *telemetry.Counter
	deaths         *telemetry.Counter
	federationErrs *telemetry.Counter
}

func newPoolMetrics(r *telemetry.Registry) poolMetrics {
	if r == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		peers: r.GaugeVec("pool_peers",
			"Known pool peers by liveness state (self counts as alive).", "state"),
		ringMembers: r.Gauge("pool_ring_members",
			"Peers currently owning ranges of the consistent-hash ring."),
		ringRebuilds: r.Counter("pool_ring_rebuilds_total",
			"Ring rebuilds triggered by membership changes."),
		beatsSent: r.Counter("pool_heartbeats_sent_total",
			"Heartbeats sent to peers."),
		beatErrors: r.Counter("pool_heartbeat_errors_total",
			"Heartbeats that failed to reach their peer."),
		beatsRecv: r.Counter("pool_heartbeats_received_total",
			"Heartbeats received from peers."),
		joinsRecv: r.Counter("pool_joins_received_total",
			"Join registrations received from peers."),
		lookups: r.Counter("pool_cache_lookups_total",
			"Remote peer-cache lookups issued before local execution."),
		lookupHits: r.Counter("pool_cache_hits_total",
			"Remote peer-cache lookups answered with a result (fleet-tier hits)."),
		lookupErrors: r.Counter("pool_cache_lookup_errors_total",
			"Remote peer-cache lookups that failed (peer unreachable or error)."),
		cacheServed: r.CounterVec("pool_cache_served_total",
			"Peer-cache requests served to other nodes, by result.", "result"),
		forwards: r.Counter("pool_forwards_total",
			"Jobs forwarded to their ring owner for execution."),
		forwardErrs: r.Counter("pool_forward_errors_total",
			"Forwarded executions that failed (transport or peer error)."),
		served: r.Counter("pool_executes_served_total",
			"Forwarded executions served for other nodes."),
		serveErrs: r.Counter("pool_execute_errors_total",
			"Forwarded executions served that ended in error."),
		handoffs: r.Counter("pool_handoffs_total",
			"Queued jobs handed off to ring successors during drain."),
		handoffErrs: r.Counter("pool_handoff_errors_total",
			"Drain handoffs no peer accepted."),
		handoffsRecv: r.Counter("pool_handoffs_received_total",
			"Drained jobs accepted from departing peers."),
		deaths: r.Counter("pool_peer_deaths_total",
			"Peers declared dead (missed beats or hard transport failure)."),
		federationErrs: r.Counter("pool_federation_errors_total",
			"Peer fetches that failed while federating pool metrics or accounting."),
	}
}

// peerIdleConns is the pool transport's per-peer idle-connection limit.
// It covers the concurrency of the hops to one peer — a requester's
// workers forwarding at once, its beats and lookups — so a finished hop
// parks its connection for the next one instead of closing it. The
// default transport's 2 is below that, so a busy node would dial (and
// leave a TIME_WAIT socket behind) for most hops.
const peerIdleConns = 64

// maxDrain bounds how much of an unwanted peer response body is read
// before closing it: small error bodies are drained so their connection
// is reused, while a runaway body is cut off with its connection.
const maxDrain = 64 << 10

// New builds a Pool; call Start to join seeds and begin heartbeating,
// and mount Handler on the node's HTTP server.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.normalized()
	if cfg.SelfID == "" {
		return nil, errors.New("pool: Config.SelfID is required")
	}
	if cfg.Advertise == "" {
		return nil, errors.New("pool: Config.Advertise is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("pool: Config.Local is required")
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no fleet-wide cap; the per-peer one applies
	tr.MaxIdleConnsPerHost = peerIdleConns
	p := &Pool{
		cfg:    cfg,
		client: &http.Client{Transport: tr}, // per-call contexts bound the control-plane calls
		log:    cfg.Logger,
		tracer: cfg.Tracer,
		m:      newPoolMetrics(cfg.Metrics),
		sem:    make(chan struct{}, gort.GOMAXPROCS(0)),
		seeds:  append([]string(nil), cfg.Join...),
		stop:   make(chan struct{}),
	}
	suspect := 3 * cfg.Heartbeat
	p.mem = NewMembership(cfg.SelfID, cfg.Advertise, suspect, 3*suspect, nil)
	p.mem.SetOnChange(p.rebuildRing)
	p.rebuildRing()
	return p, nil
}

// NodeID returns the node's advertised identity.
func (p *Pool) NodeID() string { return p.cfg.SelfID }

// Membership exposes the membership view (tests drive it directly).
func (p *Pool) Membership() *Membership { return p.mem }

// Start contacts the join seeds and launches the heartbeat loop.
// Unreachable seeds are retried every beat until first contact.
func (p *Pool) Start() {
	p.retryJoins()
	p.setPeerGauges()
	p.wg.Add(1)
	go p.loop()
}

// Close stops the heartbeat loop. It does not notify peers — their
// failure detectors handle the disappearance; a draining node hands its
// queue off explicitly (Handoff) before closing.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Ready reports the conditions blocking pool readiness — non-empty
// while a node configured with join seeds has not reached any of them.
// /readyz surfaces it next to the service's own checks.
func (p *Pool) Ready() []string {
	if p == nil {
		return nil
	}
	if len(p.cfg.Join) > 0 && !p.joinedOnce.Load() {
		return []string{"pool: not joined to any seed yet"}
	}
	return nil
}

// Peers snapshots the membership view.
func (p *Pool) Peers() []PeerInfo { return p.mem.Peers() }

// ringSnapshot returns the current ring (rebuilt on membership change).
func (p *Pool) ringSnapshot() *Ring {
	p.ringMu.Lock()
	defer p.ringMu.Unlock()
	return p.ring
}

// Owner resolves the ring owner of a job hash; self reports whether
// this node owns it (an empty pool always owns its own work).
func (p *Pool) Owner(hash string) (peer string, self bool) {
	id := p.ringSnapshot().Owner(hash)
	return id, id == "" || id == p.cfg.SelfID
}

// rebuildRing derives a fresh ring from the routable member set; the
// membership layer calls it on every routable-set change.
func (p *Pool) rebuildRing() {
	ids := p.mem.Routable()
	p.ringMu.Lock()
	p.ring = NewRing(ids, DefaultVirtualNodes)
	p.ringMu.Unlock()
	p.m.ringMembers.Set(float64(len(ids)))
	p.m.ringRebuilds.Inc()
}

// loop is the heartbeat driver: retry unjoined seeds, beat every known
// peer (gossiping the local view), then sweep liveness states.
func (p *Pool) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.retryJoins()
			p.beatAll()
			p.mem.Sweep()
			p.setPeerGauges()
		}
	}
}

// retryJoins contacts every seed still awaiting first contact.
func (p *Pool) retryJoins() {
	p.seedMu.Lock()
	pending := append([]string(nil), p.seeds...)
	p.seedMu.Unlock()
	if len(pending) == 0 {
		return
	}
	var remaining []string
	for _, seed := range pending {
		if seed == p.cfg.Advertise {
			continue // self-reference in a shared config
		}
		if err := p.join(seed); err != nil {
			p.log.Warn("pool: join failed, will retry",
				"seed", seed, "err", err.Error())
			remaining = append(remaining, seed)
			continue
		}
		p.joinedOnce.Store(true)
	}
	p.seedMu.Lock()
	p.seeds = remaining
	p.seedMu.Unlock()
}

// join registers with one seed and merges the member list it returns.
func (p *Pool) join(seed string) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.controlTimeout())
	defer cancel()
	var view viewResponse
	err := p.postJSON(ctx, seed, "/v1/pool/join",
		joinRequest{ID: p.cfg.SelfID, Addr: p.cfg.Advertise}, &view)
	if err != nil {
		return err
	}
	// The seed itself answered directly: full upsert. Its member list is
	// second-hand: discovery only.
	p.mem.Upsert(view.Self, seed)
	p.mergeView(view.Members)
	p.log.Info("pool: joined", "seed", seed, "self", view.Self,
		"members", len(view.Members))
	return nil
}

// beatAll heartbeats every known peer concurrently (dead ones too —
// that is how resurrection is discovered).
func (p *Pool) beatAll() {
	targets := p.mem.beatTargets()
	if len(targets) == 0 {
		return
	}
	body := heartbeatRequest{
		ID:      p.cfg.SelfID,
		Addr:    p.cfg.Advertise,
		Members: p.mem.Peers(),
	}
	var wg sync.WaitGroup
	for _, t := range targets {
		if t.Addr == "" {
			continue
		}
		wg.Add(1)
		go func(t PeerInfo) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.controlTimeout())
			defer cancel()
			p.m.beatsSent.Inc()
			var view viewResponse
			if err := p.postJSON(ctx, t.Addr, "/v1/pool/heartbeat", body, &view); err != nil {
				p.m.beatErrors.Inc()
				if p.log.Enabled(telemetry.LevelDebug) {
					p.log.Debug("pool: heartbeat failed",
						"peer", t.ID, "err", err.Error())
				}
				return
			}
			// A responding peer is directly confirmed alive; its member
			// list is gossip.
			p.mem.Upsert(t.ID, t.Addr)
			p.mergeView(view.Members)
		}(t)
	}
	wg.Wait()
}

// mergeView folds a gossiped member list into the local view: unknown,
// not-dead entries are discovered; known entries are untouched (their
// liveness only moves on direct contact).
func (p *Pool) mergeView(members []PeerInfo) {
	for _, m := range members {
		if m.State == StateDead {
			continue
		}
		p.mem.UpsertIfUnknown(m.ID, m.Addr)
	}
}

// setPeerGauges mirrors the membership view onto pool_peers.
func (p *Pool) setPeerGauges() {
	counts := map[PeerState]int{StateAlive: 0, StateSuspect: 0, StateDead: 0}
	for _, pi := range p.mem.Peers() {
		counts[pi.State]++
	}
	p.m.peers.With(string(StateAlive)).Set(float64(counts[StateAlive]))
	p.m.peers.With(string(StateSuspect)).Set(float64(counts[StateSuspect]))
	p.m.peers.With(string(StateDead)).Set(float64(counts[StateDead]))
}

// peerUnreachable handles a hard transport failure on the data plane:
// the peer is declared dead now (its process is gone or unreachable —
// waiting out the dead threshold would stall every retry), the ring rebalances,
// and a later beat resurrects it if it returns.
func (p *Pool) peerUnreachable(peer string, err error) {
	if p.mem.MarkDead(peer) {
		p.m.deaths.Inc()
		p.setPeerGauges()
		p.log.Warn("pool: peer unreachable, declared dead",
			"peer", peer, "err", err.Error())
	}
}

// controlTimeout bounds control-plane calls (join, heartbeat, cache
// lookup): generous multiples of the beat so a slow peer is not
// declared unreachable by an aggressive client timeout.
func (p *Pool) controlTimeout() time.Duration {
	return 5 * p.cfg.Heartbeat
}

// Lookup consults a peer's cache for a job hash: the fleet tier of the
// result cache. found=false with a nil error is a clean miss; a
// transport failure declares the peer dead and returns the error.
func (p *Pool) Lookup(ctx context.Context, peer, hash string) (res []byte, found bool, err error) {
	addr := p.mem.Addr(peer)
	if addr == "" {
		return nil, false, fmt.Errorf("pool: unknown peer %q", peer)
	}
	p.m.lookups.Inc()
	ctx, cancel := context.WithTimeout(ctx, p.controlTimeout())
	defer cancel()
	ctx, span := p.tracer.StartSpan(ctx, "pool.cache-lookup", "client",
		tracing.String("pool.peer", peer),
		tracing.String("job.hash", hash))
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		addr+"/v1/pool/cache/"+hash, nil)
	if err != nil {
		return nil, false, err
	}
	p.injectTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		p.m.lookupErrors.Inc()
		span.SetError(err)
		p.peerUnreachable(peer, err)
		return nil, false, fmt.Errorf("pool: cache lookup on %s: %w", peer, err)
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			p.m.lookupErrors.Inc()
			span.SetError(err)
			return nil, false, err
		}
		p.m.lookupHits.Inc()
		span.SetAttr(tracing.Bool("pool.cacheHit", true))
		return b, true, nil
	case http.StatusNotFound:
		span.SetAttr(tracing.Bool("pool.cacheHit", false))
		return nil, false, nil
	default:
		p.m.lookupErrors.Inc()
		err := fmt.Errorf("pool: cache lookup on %s: status %d", peer, resp.StatusCode)
		span.SetError(err)
		return nil, false, err
	}
}

// Execute forwards a job to its ring owner and blocks until the peer
// returns the result. Transport failures declare the peer dead (the
// caller's retry then reroutes on the rebalanced ring); peer-reported
// failures come back as *RemoteError carrying the permanence bit.
func (p *Pool) Execute(ctx context.Context, peer, hash string, specJSON []byte, label string) ([]byte, error) {
	addr := p.mem.Addr(peer)
	if addr == "" {
		return nil, fmt.Errorf("pool: unknown peer %q", peer)
	}
	p.m.forwards.Inc()
	ctx, span := p.tracer.StartSpan(ctx, "pool.forward", "client",
		tracing.String("pool.peer", peer),
		tracing.String("job.hash", hash))
	defer span.End()
	body, err := json.Marshal(executeRequest{Hash: hash, Label: label, Spec: specJSON})
	if err != nil {
		return nil, err
	}
	// No client timeout here: executions legitimately take long; the job
	// context (cancel, shutdown) bounds the wait.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/v1/pool/execute", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	p.injectTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		p.m.forwardErrs.Inc()
		span.SetError(err)
		p.peerUnreachable(peer, err)
		return nil, fmt.Errorf("pool: forward to %s: %w", peer, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusOK {
		return io.ReadAll(resp.Body)
	}
	p.m.forwardErrs.Inc()
	var we wireError
	msg := fmt.Sprintf("status %d", resp.StatusCode)
	if b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxDrain)); rerr == nil {
		if jerr := json.Unmarshal(b, &we); jerr == nil && we.Error != "" {
			msg = we.Error
		}
	}
	re := &RemoteError{Peer: peer, StatusCode: resp.StatusCode,
		Permanent: we.Permanent, Msg: msg}
	span.SetError(re)
	return nil, re
}

// Handoff offers a queued job to the ring successors of its hash (first
// alive non-self peer in preference order) for asynchronous execution —
// the drain path. Returns the accepting peer's ID.
func (p *Pool) Handoff(ctx context.Context, hash string, specJSON []byte, label string, priority int) (string, error) {
	ring := p.ringSnapshot()
	order := ring.Owners(hash, ring.Len())
	body, err := json.Marshal(submitRequest{
		Hash: hash, Label: label, Priority: priority, Spec: specJSON,
	})
	if err != nil {
		return "", err
	}
	var lastErr error
	for _, peer := range order {
		if peer == p.cfg.SelfID || p.mem.State(peer) != StateAlive {
			continue
		}
		addr := p.mem.Addr(peer)
		if addr == "" {
			continue
		}
		callCtx, cancel := context.WithTimeout(ctx, p.controlTimeout())
		req, rerr := http.NewRequestWithContext(callCtx, http.MethodPost,
			addr+"/v1/pool/submit", bytes.NewReader(body))
		if rerr != nil {
			cancel()
			return "", rerr
		}
		req.Header.Set("Content-Type", "application/json")
		p.injectTrace(ctx, req)
		resp, derr := p.client.Do(req)
		cancel()
		if derr != nil {
			lastErr = derr
			p.peerUnreachable(peer, derr)
			continue
		}
		code := resp.StatusCode
		drainClose(resp.Body)
		if code == http.StatusAccepted {
			p.m.handoffs.Inc()
			return peer, nil
		}
		// A peer that answered but refused (its own queue full, itself
		// draining) is healthy; try the next successor.
		lastErr = fmt.Errorf("pool: peer %s refused handoff: status %d", peer, code)
	}
	p.m.handoffErrs.Inc()
	if lastErr == nil {
		lastErr = errors.New("pool: no live peer to hand off to")
	}
	return "", lastErr
}

// injectTrace stamps the current span's W3C traceparent on an outgoing
// peer request so cross-node spans stitch into one trace.
func (p *Pool) injectTrace(ctx context.Context, req *http.Request) {
	if sp := tracing.SpanFromContext(ctx); sp.Recording() {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
}

// postJSON POSTs a JSON body to addr+path and decodes the JSON response
// into out (out may be nil).
func (p *Pool) postJSON(ctx context.Context, addr, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	p.injectTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pool: %s%s: status %d", addr, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainClose reads what is left of a peer response body (up to maxDrain)
// and closes it. A body closed unread — a 404 miss, a refused handoff —
// makes the transport discard its connection, so the next hop dials.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	_ = body.Close()
}
