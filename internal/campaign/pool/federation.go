package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ensemblekit/internal/campaign/accounting"
)

// Federation: the pool-wide observability rollup. Every node serves its
// own registry and resource ledger on node-local routes
// (/v1/pool/metrics/node, /v1/pool/accounting/node); any node answers
// the fleet views (/v1/pool/metrics, /v1/pool/accounting) by scraping
// every known peer over those routes and merging.
//
// The merged exposition is byte-stable: families in name order, nodes
// in ID order within a family, each sample line stamped with a leading
// node="<id>" label. Peers that fail to answer are skipped and counted
// on pool_federation_errors_total — a dead peer shows up as a counter
// increment, never as a partial parse.

// scrapedFamily is one metric family lifted out of a peer's exposition
// text: the headers plus its raw sample lines, untouched.
type scrapedFamily struct {
	name    string
	help    string // raw "# HELP <name> <text>" line, "" when absent
	typ     string // raw "# TYPE <name> <type>" line
	samples []string
}

// parseExposition splits Prometheus text format (version 0.0.4) into
// family blocks. The format our registry emits — and the only one peers
// send — always announces a family with `# TYPE` before its samples, so
// a block parse is sufficient; unattributed lines are dropped.
func parseExposition(text string) []scrapedFamily {
	var fams []scrapedFamily
	help := map[string]string{}
	var cur *scrapedFamily
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			if i := strings.IndexByte(rest, ' '); i > 0 {
				help[rest[:i]] = line
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			name := rest
			if i := strings.IndexByte(rest, ' '); i > 0 {
				name = rest[:i]
			}
			fams = append(fams, scrapedFamily{name: name, help: help[name], typ: line})
			cur = &fams[len(fams)-1]
		case strings.HasPrefix(line, "#"):
		case cur != nil:
			cur.samples = append(cur.samples, line)
		}
	}
	return fams
}

// injectNodeLabel stamps node="<id>" as the first label of one sample
// line, preserving any labels already present.
func injectNodeLabel(line, node string) string {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return line
	}
	if line[i] == '{' {
		return line[:i] + `{node="` + node + `",` + line[i+1:]
	}
	return line[:i] + `{node="` + node + `"}` + line[i:]
}

// fedSource is one node's contribution to a federated view.
type fedSource struct {
	node string
	body []byte
	err  error
}

// gatherPeers fetches path from every known peer concurrently (dead
// ones included — their failure is the signal), plus a slot for self
// filled by localFn. Sources come back sorted by node ID; failures keep
// their err and increment pool_federation_errors_total.
func (p *Pool) gatherPeers(ctx context.Context, path string, localFn func() []byte) []fedSource {
	peers := p.mem.beatTargets()
	out := make([]fedSource, 0, len(peers)+1)
	out = append(out, fedSource{node: p.cfg.SelfID})
	for _, pi := range peers {
		out = append(out, fedSource{node: pi.ID, err: fmt.Errorf("pool: peer %s has no address", pi.ID)})
	}
	var wg sync.WaitGroup
	for i := range out {
		if out[i].node == p.cfg.SelfID {
			continue
		}
		addr := p.mem.Addr(out[i].node)
		if addr == "" {
			continue
		}
		wg.Add(1)
		go func(src *fedSource) {
			defer wg.Done()
			src.body, src.err = p.scrapePeer(ctx, addr, path)
		}(&out[i])
	}
	wg.Wait()
	// Self renders locally, after the peer round-trips, so failures
	// counted this pass are already visible in the self slice.
	for i := range out {
		if out[i].err != nil {
			p.m.federationErrs.Inc()
			p.log.Warn("pool: federation fetch failed",
				"peer", out[i].node, "path", path, "err", out[i].err.Error())
		}
	}
	for i := range out {
		if out[i].node == p.cfg.SelfID {
			out[i].body = localFn()
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].node < out[k].node })
	return out
}

// scrapePeer GETs addr+path within the control-plane timeout.
func (p *Pool) scrapePeer(ctx context.Context, addr, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.controlTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pool: %s%s: status %d", addr, path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// renderSelfMetrics is the node-local registry render.
func (p *Pool) renderSelfMetrics() []byte {
	var buf bytes.Buffer
	_ = p.cfg.Metrics.WritePrometheus(&buf)
	return buf.Bytes()
}

// handleMetricsNode serves this node's own registry — the scrape target
// federation reads, mounted on the pool mux so it is reachable wherever
// the peer protocol is.
func (p *Pool) handleMetricsNode(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.renderSelfMetrics())
}

// handleMetricsFleet serves the federated exposition: every reachable
// node's families merged by name, each sample carrying a node label.
func (p *Pool) handleMetricsFleet(w http.ResponseWriter, r *http.Request) {
	sources := p.gatherPeers(r.Context(), "/v1/pool/metrics/node", p.renderSelfMetrics)

	type mergedFamily struct {
		help, typ string
		nodes     []string // node IDs holding the family, in merge order
		byNode    map[string][]string
	}
	merged := map[string]*mergedFamily{}
	for _, src := range sources {
		if src.err != nil {
			continue
		}
		for _, f := range parseExposition(string(src.body)) {
			m, ok := merged[f.name]
			if !ok {
				m = &mergedFamily{help: f.help, typ: f.typ, byNode: map[string][]string{}}
				merged[f.name] = m
			}
			if m.help == "" {
				m.help = f.help
			}
			if _, seen := m.byNode[src.node]; !seen {
				m.nodes = append(m.nodes, src.node)
			}
			m.byNode[src.node] = append(m.byNode[src.node], f.samples...)
		}
	}

	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	for _, name := range names {
		m := merged[name]
		if m.help != "" {
			buf.WriteString(m.help)
			buf.WriteByte('\n')
		}
		buf.WriteString(m.typ)
		buf.WriteByte('\n')
		// Sources arrive node-sorted, so m.nodes is already ordered.
		for _, node := range m.nodes {
			for _, line := range m.byNode[node] {
				buf.WriteString(injectNodeLabel(line, node))
				buf.WriteByte('\n')
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// handleAccountingNode serves this node's resource-ledger snapshot.
func (p *Pool) handleAccountingNode(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.cfg.Local.NodeAccountingJSON())
}

// poolAccountingResponse is the fleet rollup: every reachable node's
// snapshot keyed by ID, plus their sum. encoding/json emits map keys
// sorted, and Merge runs in sorted node order, so the body is
// byte-stable for a fixed fleet state.
type poolAccountingResponse struct {
	Nodes map[string]accounting.Snapshot `json:"nodes"`
	Fleet accounting.Snapshot            `json:"fleet"`
}

// handleAccountingFleet sums the per-node ledgers into the fleet view.
func (p *Pool) handleAccountingFleet(w http.ResponseWriter, r *http.Request) {
	sources := p.gatherPeers(r.Context(), "/v1/pool/accounting/node",
		func() []byte { return p.cfg.Local.NodeAccountingJSON() })
	resp := poolAccountingResponse{Nodes: map[string]accounting.Snapshot{}}
	snaps := make([]accounting.Snapshot, 0, len(sources))
	for _, src := range sources {
		if src.err != nil {
			continue
		}
		var s accounting.Snapshot
		if err := json.Unmarshal(src.body, &s); err != nil {
			p.m.federationErrs.Inc()
			p.log.Warn("pool: federation accounting decode failed",
				"peer", src.node, "err", err.Error())
			continue
		}
		resp.Nodes[src.node] = s
		snaps = append(snaps, s)
	}
	resp.Fleet = accounting.Merge(snaps)
	p.writeJSON(w, http.StatusOK, resp)
}
