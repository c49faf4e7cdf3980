package pool

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testLocal is a map-backed Local for exercising the wire protocol
// without a campaign service behind it.
type testLocal struct {
	mu       sync.Mutex
	cache    map[string][]byte
	execFn   func(ctx context.Context, specJSON []byte, label string) ([]byte, error)
	submits  int
	submitOK bool
	acctJSON []byte
}

func newTestLocal() *testLocal {
	return &testLocal{cache: map[string][]byte{}, submitOK: true}
}

func (l *testLocal) put(hash string, res []byte) {
	l.mu.Lock()
	l.cache[hash] = res
	l.mu.Unlock()
}

func (l *testLocal) CachedResultJSON(hash string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.cache[hash]
	return res, ok
}

func (l *testLocal) ExecuteForwardedJSON(ctx context.Context, specJSON []byte, label string) ([]byte, error) {
	l.mu.Lock()
	fn := l.execFn
	l.mu.Unlock()
	if fn != nil {
		return fn(ctx, specJSON, label)
	}
	return []byte(`{"echo":` + string(specJSON) + `}`), nil
}

func (l *testLocal) SubmitJSON(specJSON []byte, label string, priority int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.submitOK {
		return errors.New("queue full")
	}
	l.submits++
	return nil
}

func (l *testLocal) NodeAccountingJSON() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.acctJSON != nil {
		return l.acctJSON
	}
	return []byte(`{}`)
}

// testNode is one in-process pool node: a Pool mounted on an httptest
// server whose URL is its advertised address.
type testNode struct {
	id    string
	pool  *Pool
	local *testLocal
	ts    *httptest.Server
}

// startNodes brings up n nodes; nodes after the first join the first.
// The handler indirection lets the server URL exist before the pool
// that advertises it.
func startNodes(t *testing.T, n int, heartbeat time.Duration) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		var h atomic.Pointer[http.Handler]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hp := h.Load(); hp != nil {
				(*hp).ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		}))
		local := newTestLocal()
		cfg := Config{
			SelfID:    fmt.Sprintf("n%d", i+1),
			Advertise: ts.URL,
			Heartbeat: heartbeat,
			Local:     local,
		}
		if i > 0 {
			cfg.Join = []string{nodes[0].ts.URL}
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handler := p.Handler()
		h.Store(&handler)
		p.Start()
		nodes[i] = &testNode{id: cfg.SelfID, pool: p, local: local, ts: ts}
		t.Cleanup(func() { p.Close(); ts.Close() })
	}
	return nodes
}

// waitConverged blocks until every node's ring spans want members.
func waitConverged(t *testing.T, nodes []*testNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if n.pool.ringSnapshot().Len() != want {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("%s ring: %v", n.id, n.pool.ringSnapshot().Members())
			}
			t.Fatal("pool never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Three nodes joining through one seed must converge on the same ring
// and route every hash to the same owner.
func TestPoolConvergesAndRoutesConsistently(t *testing.T) {
	nodes := startNodes(t, 3, 10*time.Millisecond)
	waitConverged(t, nodes, 3)
	for i := 0; i < 100; i++ {
		hash := fmt.Sprintf("%064x", i)
		owner, _ := nodes[0].pool.Owner(hash)
		for _, n := range nodes[1:] {
			got, _ := n.pool.Owner(hash)
			if got != owner {
				t.Fatalf("hash %s: %s says %s, %s says %s",
					hash, nodes[0].id, owner, n.id, got)
			}
		}
	}
	// Owner's self bit agrees with the ID.
	hash := fmt.Sprintf("%064x", 7)
	owner, _ := nodes[0].pool.Owner(hash)
	for _, n := range nodes {
		_, self := n.pool.Owner(hash)
		if self != (n.id == owner) {
			t.Fatalf("node %s self=%v for owner %s", n.id, self, owner)
		}
	}
}

// Lookup serves the fleet cache tier: hits return the peer's bytes,
// misses are clean (no error).
func TestPoolCacheLookup(t *testing.T) {
	nodes := startNodes(t, 2, 10*time.Millisecond)
	waitConverged(t, nodes, 2)
	nodes[1].local.put("abc", []byte(`{"objective":1.5}`))

	res, found, err := nodes[0].pool.Lookup(context.Background(), "n2", "abc")
	if err != nil || !found {
		t.Fatalf("lookup: found=%v err=%v", found, err)
	}
	if string(res) != `{"objective":1.5}` {
		t.Fatalf("lookup body %s", res)
	}
	_, found, err = nodes[0].pool.Lookup(context.Background(), "n2", "missing")
	if err != nil || found {
		t.Fatalf("miss: found=%v err=%v", found, err)
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// Sequential hops to one peer — fleet-cache misses, hits and forwards —
// ride one kept-alive connection: every peer response body is drained
// before it is closed, so no hop makes the next one dial.
func TestPoolReusesPeerConnections(t *testing.T) {
	peer := newTestLocal()
	peer.put("hit", []byte(`{"objective":1.5}`))
	pp, err := New(Config{SelfID: "n2", Advertise: "http://n2.invalid", Local: peer})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(pp.Handler())
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	// Neither pool is started, so no heartbeat shares the connection.
	p, err := New(Config{SelfID: "n1", Advertise: "http://n1.invalid", Local: newTestLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.mem.Upsert("n2", ts.URL)

	ctx := context.Background()
	hops := []struct {
		name string
		hop  func() error
	}{
		{"lookup miss", func() error {
			_, found, err := p.Lookup(ctx, "n2", "miss")
			if err == nil && found {
				err = errors.New("miss answered as a hit")
			}
			return err
		}},
		{"lookup hit", func() error {
			_, found, err := p.Lookup(ctx, "n2", "hit")
			if err == nil && !found {
				err = errors.New("hit answered as a miss")
			}
			return err
		}},
		{"forward", func() error {
			_, err := p.Execute(ctx, "n2", "h", []byte(`{"a":1}`), "job")
			return err
		}},
	}
	for _, h := range hops {
		for i := 0; i < 50; i++ {
			if err := h.hop(); err != nil {
				t.Fatalf("%s %d: %v", h.name, i, err)
			}
		}
		if got := ln.accepts.Load(); got != 1 {
			t.Fatalf("after 50 sequential %s hops the peer accepted %d connections, want 1", h.name, got)
		}
	}
}

// Every peer POST body is bounded: an oversized one is refused 413 with
// a reason naming the bound, before it reaches the node's service.
func TestPoolRefusesOversizedBodies(t *testing.T) {
	local := newTestLocal()
	p, err := New(Config{SelfID: "n1", Advertise: "http://n1.invalid", Local: local})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	body := `{"spec":"` + strings.Repeat("x", maxPeerBody) + `"}`
	for _, path := range []string{"/v1/pool/join", "/v1/pool/heartbeat", "/v1/pool/execute", "/v1/pool/submit"} {
		w := httptest.NewRecorder()
		p.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), fmt.Sprintf("over the %d-byte bound", maxPeerBody)) {
			t.Errorf("POST %s: %d %s", path, w.Code, w.Body.String())
		}
	}
	if local.submits != 0 {
		t.Errorf("an oversized handoff reached the service")
	}
}

// Execute round-trips spec JSON to the peer's Local and returns its
// result; peer-side failures come back as RemoteError with the
// permanence bit carried over the wire.
func TestPoolExecuteForwardAndRemoteError(t *testing.T) {
	nodes := startNodes(t, 2, 10*time.Millisecond)
	waitConverged(t, nodes, 2)

	res, err := nodes[0].pool.Execute(context.Background(), "n2", "h1", []byte(`{"a":1}`), "job")
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != `{"echo":{"a":1}}` {
		t.Fatalf("forwarded result %s", res)
	}

	nodes[1].local.execFn = func(context.Context, []byte, string) ([]byte, error) {
		return nil, errors.New("boom")
	}
	// Without a Permanent classifier the failure is transient.
	_, err = nodes[0].pool.Execute(context.Background(), "n2", "h1", []byte(`{}`), "")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v, want RemoteError", err)
	}
	if re.Permanent || !strings.Contains(re.Msg, "boom") {
		t.Fatalf("remote error %+v", re)
	}
}

// A Permanent classifier on the serving node must surface as
// RemoteError.Permanent on the requesting node.
func TestPoolExecuteCarriesPermanenceBit(t *testing.T) {
	nodes := startNodes(t, 2, 10*time.Millisecond)
	waitConverged(t, nodes, 2)
	nodes[1].pool.cfg.Permanent = func(error) bool { return true }
	nodes[1].local.execFn = func(context.Context, []byte, string) ([]byte, error) {
		return nil, errors.New("bad spec")
	}
	_, err := nodes[0].pool.Execute(context.Background(), "n2", "h", []byte(`{}`), "")
	var re *RemoteError
	if !errors.As(err, &re) || !re.Permanent || !re.IsPermanentRemote() {
		t.Fatalf("error %v, want permanent RemoteError", err)
	}
	if re.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", re.StatusCode)
	}
}

// A hard transport failure must declare the peer dead immediately and
// rebalance the ring, so retries route elsewhere.
func TestPoolExecuteTransportFailureKillsPeer(t *testing.T) {
	nodes := startNodes(t, 3, time.Hour) // no beats: the data plane detects
	// Without heartbeats, gossip never reaches n2; only n1 (the seed) and
	// n3 (which merged the seed's view) see all three members — and only
	// n1 acts in this test.
	waitConverged(t, nodes[:1], 3)
	nodes[2].ts.Close()

	_, err := nodes[0].pool.Execute(context.Background(), "n3", "h", []byte(`{}`), "")
	if err == nil {
		t.Fatal("execute against a closed peer succeeded")
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("transport failure classified as RemoteError: %v", err)
	}
	if got := nodes[0].pool.Membership().State("n3"); got != StateDead {
		t.Fatalf("peer state %s after transport failure, want dead", got)
	}
	if nodes[0].pool.ringSnapshot().Len() != 2 {
		t.Fatalf("ring still spans %v", nodes[0].pool.ringSnapshot().Members())
	}
	// The hash now routes to a survivor.
	owner, _ := nodes[0].pool.Owner("h")
	if owner == "n3" {
		t.Fatal("hash still routed to the dead peer")
	}
}

// Handoff walks the ring successors, skipping refusals, and reports
// the accepting peer.
func TestPoolHandoffSkipsRefusals(t *testing.T) {
	nodes := startNodes(t, 3, 10*time.Millisecond)
	waitConverged(t, nodes, 3)

	// Find a hash owned by a non-self peer, then make that peer refuse.
	var hash, owner string
	for i := 0; ; i++ {
		hash = fmt.Sprintf("%064x", i)
		owner, _ = nodes[0].pool.Owner(hash)
		if owner != "n1" {
			break
		}
	}
	ownerNode := nodes[int(owner[1]-'1')]
	ownerNode.local.submitOK = false

	peer, err := nodes[0].pool.Handoff(context.Background(), hash, []byte(`{}`), "drained", 0)
	if err != nil {
		t.Fatal(err)
	}
	if peer == owner || peer == "n1" {
		t.Fatalf("handoff accepted by %s (owner %s refused, self excluded)", peer, owner)
	}

	// With every peer refusing, the handoff must fail.
	for _, n := range nodes {
		n.local.submitOK = false
	}
	if _, err := nodes[0].pool.Handoff(context.Background(), hash, []byte(`{}`), "", 0); err == nil {
		t.Fatal("handoff succeeded with every peer refusing")
	}
}

// Ready gates on first seed contact: a joining node is unready until it
// reaches a seed.
func TestPoolReadyGatesOnJoin(t *testing.T) {
	local := newTestLocal()
	p, err := New(Config{
		SelfID:    "n9",
		Advertise: "http://127.0.0.1:1",
		Join:      []string{"http://127.0.0.1:9"}, // unreachable
		Heartbeat: 10 * time.Millisecond,
		Local:     local,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Ready(); len(got) == 0 {
		t.Fatal("unjoined pool reports ready")
	}
	var nilPool *Pool
	if got := nilPool.Ready(); got != nil {
		t.Fatalf("nil pool Ready() = %v", got)
	}

	solo, err := New(Config{SelfID: "n1", Advertise: "http://127.0.0.1:1", Local: local})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if got := solo.Ready(); got != nil {
		t.Fatalf("seedless pool Ready() = %v", got)
	}
}

// Node-ID collisions are rejected at join time.
func TestPoolJoinRejectsIDCollision(t *testing.T) {
	nodes := startNodes(t, 1, time.Hour)
	body := strings.NewReader(`{"id":"n1","addr":"http://elsewhere"}`)
	resp, err := http.Post(nodes[0].ts.URL+"/v1/pool/join", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
}
