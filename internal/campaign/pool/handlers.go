package pool

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ensemblekit/internal/telemetry/tracing"
)

// Wire types of the peer protocol. Spec and result payloads travel as
// raw JSON — the pool never interprets them.

// joinRequest registers a peer: POST /v1/pool/join.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// heartbeatRequest is one beat: the sender's identity plus its member
// view for gossip. POST /v1/pool/heartbeat.
type heartbeatRequest struct {
	ID      string     `json:"id"`
	Addr    string     `json:"addr"`
	Members []PeerInfo `json:"members,omitempty"`
}

// viewResponse is the receiver's view, returned from join, heartbeat,
// and GET /v1/pool/peers.
type viewResponse struct {
	Self    string     `json:"self"`
	Members []PeerInfo `json:"members"`
}

// executeRequest forwards one job for synchronous execution:
// POST /v1/pool/execute. The response body is the raw result JSON.
type executeRequest struct {
	Hash  string          `json:"hash"`
	Label string          `json:"label,omitempty"`
	Spec  json.RawMessage `json:"spec"`
}

// submitRequest hands one drained job off for asynchronous execution:
// POST /v1/pool/submit (202 on acceptance).
type submitRequest struct {
	Hash     string          `json:"hash"`
	Label    string          `json:"label,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Spec     json.RawMessage `json:"spec"`
}

// wireError is the JSON error body of the peer protocol; Permanent
// carries the executing node's retryability classification across the
// wire.
type wireError struct {
	Error     string `json:"error"`
	Permanent bool   `json:"permanent,omitempty"`
}

// Handler returns the peer-protocol route table, mounted by the node's
// HTTP server under /v1/pool/:
//
//	POST /v1/pool/join         register a peer, returns the local view
//	POST /v1/pool/heartbeat    record a beat + gossip, returns the view
//	GET  /v1/pool/peers        the local membership view
//	GET  /v1/pool/cache/{hash} serve a cached result to a peer (404 miss)
//	POST /v1/pool/execute      execute a forwarded job synchronously
//	POST /v1/pool/submit       accept a drained job for async execution
//	GET  /v1/pool/metrics/node     this node's registry (federation's scrape target)
//	GET  /v1/pool/metrics          federated exposition, node-labeled
//	GET  /v1/pool/accounting/node  this node's resource-ledger snapshot
//	GET  /v1/pool/accounting       fleet rollup of the per-node ledgers
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pool/join", p.handleJoin)
	mux.HandleFunc("POST /v1/pool/heartbeat", p.handleHeartbeat)
	mux.HandleFunc("GET /v1/pool/peers", p.handlePeers)
	mux.HandleFunc("GET /v1/pool/cache/{hash}", p.handleCache)
	mux.HandleFunc("POST /v1/pool/execute", p.handleExecute)
	mux.HandleFunc("POST /v1/pool/submit", p.handleSubmit)
	mux.HandleFunc("GET /v1/pool/metrics/node", p.handleMetricsNode)
	mux.HandleFunc("GET /v1/pool/metrics", p.handleMetricsFleet)
	mux.HandleFunc("GET /v1/pool/accounting/node", p.handleAccountingNode)
	mux.HandleFunc("GET /v1/pool/accounting", p.handleAccountingFleet)
	return mux
}

func (p *Pool) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !p.decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		p.writeError(w, http.StatusBadRequest,
			fmt.Errorf("pool: join requires id and addr"), false)
		return
	}
	if req.ID == p.cfg.SelfID && req.Addr != p.cfg.Advertise {
		p.writeError(w, http.StatusConflict,
			fmt.Errorf("pool: node ID %q already taken by %s", req.ID, p.cfg.Advertise), false)
		return
	}
	p.m.joinsRecv.Inc()
	p.mem.Upsert(req.ID, req.Addr)
	p.setPeerGauges()
	p.log.Info("pool: peer joined", "peer", req.ID, "addr", req.Addr)
	p.writeJSON(w, http.StatusOK, p.view())
}

func (p *Pool) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !p.decodeBody(w, r, &req) {
		return
	}
	p.m.beatsRecv.Inc()
	p.mem.Upsert(req.ID, req.Addr)
	p.mergeView(req.Members)
	p.writeJSON(w, http.StatusOK, p.view())
}

func (p *Pool) handlePeers(w http.ResponseWriter, _ *http.Request) {
	p.writeJSON(w, http.StatusOK, p.view())
}

// handleCache serves the fleet cache tier: the raw result JSON when the
// local cache holds the hash, 404 otherwise.
func (p *Pool) handleCache(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok := p.cfg.Local.CachedResultJSON(hash)
	if !ok {
		p.m.cacheServed.With("miss").Inc()
		p.writeError(w, http.StatusNotFound,
			fmt.Errorf("pool: no cached result for %s", hash), false)
		return
	}
	p.m.cacheServed.With("hit").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

// handleExecute runs a forwarded job to completion in this handler
// goroutine, bounded by the forward semaphore — deliberately NOT through
// the local worker queue, so two nodes forwarding to each other through
// saturated queues can never deadlock their worker pools. The incoming
// traceparent parents the execution's spans, stitching the cross-node
// trace together.
func (p *Pool) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if !p.decodeBody(w, r, &req) {
		return
	}
	ctx := r.Context()
	if remote, err := tracing.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		ctx = tracing.ContextWithRemote(ctx, remote)
	}
	ctx, span := p.tracer.StartSpan(ctx, "pool.serve-execute", "server",
		tracing.String("job.hash", req.Hash),
		tracing.String("pool.self", p.cfg.SelfID))
	defer span.End()

	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		err := ctx.Err()
		span.SetError(err)
		p.writeError(w, http.StatusServiceUnavailable, err, false)
		return
	}

	p.m.served.Inc()
	res, err := p.cfg.Local.ExecuteForwardedJSON(ctx, req.Spec, req.Label)
	if err != nil {
		p.m.serveErrs.Inc()
		span.SetError(err)
		permanent := p.cfg.Permanent != nil && p.cfg.Permanent(err)
		code := http.StatusInternalServerError
		if permanent {
			code = http.StatusUnprocessableEntity
		}
		p.writeError(w, code, err, permanent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

// handleSubmit accepts a drained job for asynchronous execution.
func (p *Pool) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !p.decodeBody(w, r, &req) {
		return
	}
	if err := p.cfg.Local.SubmitJSON(req.Spec, req.Label, req.Priority); err != nil {
		p.writeError(w, http.StatusServiceUnavailable, err, false)
		return
	}
	p.m.handoffsRecv.Inc()
	p.log.Info("pool: accepted drained job", "hash", req.Hash, "label", req.Label)
	p.writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

// maxPeerBody bounds the body of every peer POST (join, heartbeat,
// execute, submit). A spec is ~260 B per component and a member list
// ~100 B per peer, so this holds any engine job of up to ~30 000
// components; a larger body is refused 413 once the bound is read.
const maxPeerBody = 8 << 20

// decodeBody decodes a peer POST body of at most maxPeerBody bytes into
// v. On failure it answers 413 (over the bound) or 400 and returns false.
func (p *Pool) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("pool: request body over the %d-byte bound", tooLarge.Limit)
	}
	p.writeError(w, code, err, false)
	return false
}

func (p *Pool) view() viewResponse {
	return viewResponse{Self: p.cfg.SelfID, Members: p.mem.Peers()}
}

func (p *Pool) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (p *Pool) writeError(w http.ResponseWriter, code int, err error, permanent bool) {
	p.writeJSON(w, code, wireError{Error: err.Error(), Permanent: permanent})
}
