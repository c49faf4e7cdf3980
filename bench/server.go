//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds how long a node may take to answer /readyz (and a
// pool to converge) before the run fails.
const readyTimeout = 30 * time.Second

// buildServer compiles cmd/ensembled from the checkout the benchmark
// runs in (the working directory) into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	exe := filepath.Join(dir, "ensembled")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", exe, "./cmd/ensembled")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ensembled (run the benchmark from the repository root): %w\n%s", err, out)
	}
	return exe, nil
}

// node is one running ensembled process.
type node struct {
	id   string
	base string
	cmd  *exec.Cmd
}

// cluster is the set of server processes one workload runs against.
type cluster struct {
	nodes []*node
	hc    *http.Client
}

// startCluster spawns n ensembled processes with the flags the binary
// ships with (tracing, registry and recorder on) plus what the benchmark
// needs to find and inspect them, and returns once every node is ready;
// n > 1 forms a pool (n2.. join n1) and waits until every node sees n
// alive peers. On error nothing is left running.
func startCluster(ctx context.Context, exe, dir string, n int) (_ *cluster, err error) {
	c := &cluster{hc: &http.Client{Timeout: 10 * time.Second}}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		args := []string{"-pprof", "-log-level", "error", "-addr", "127.0.0.1:0"}
		if n > 1 {
			args = append(args, "-node-id", id, "-heartbeat", "100ms")
			if i > 1 {
				args = append(args, "-join", c.nodes[0].base)
			}
		}
		nd, err := startNode(ctx, exe, dir, id, args)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	deadline := time.Now().Add(readyTimeout)
	for _, nd := range c.nodes {
		for !c.nodeReady(nd, n) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("node %s never became ready (want /readyz 200 and %d alive peers)", nd.id, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// startNode launches one process and waits for its address file.
func startNode(ctx context.Context, exe, dir, id string, args []string) (*node, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%s-%d", id, time.Now().UnixNano()))
	cmd := exec.Command(exe, append(args, "-addr-file", addrFile)...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even when the benchmark is killed
	// before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", id, err)
	}
	nd := &node{id: id, cmd: cmd}
	deadline := time.Now().Add(readyTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			nd.base = "http://" + strings.TrimSpace(string(b))
			_ = os.Remove(addrFile)
			return nd, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			nd.kill()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("node %s never wrote its address", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (nd *node) kill() {
	_ = nd.cmd.Process.Kill()
	_ = nd.cmd.Wait()
}

// bases lists the nodes' base URLs, by node index.
func (c *cluster) bases() []string {
	out := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.base
	}
	return out
}

// stop kills every node and waits for it to exit. The servers hold no
// state worth a graceful shutdown.
func (c *cluster) stop() {
	for _, nd := range c.nodes {
		nd.kill()
	}
	c.nodes = nil
	c.hc.CloseIdleConnections()
}

// nodeReady reports whether the node answers /readyz with 200 and, in a
// pool, sees every peer alive.
func (c *cluster) nodeReady(nd *node, peers int) bool {
	resp, err := c.hc.Get(nd.base + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if peers == 1 {
		return true
	}
	var view struct {
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
	}
	body, err := c.get(nd.base + "/v1/pool/peers")
	if err != nil || json.Unmarshal([]byte(body), &view) != nil {
		return false
	}
	alive := 0
	for _, m := range view.Members {
		if m.State == "alive" {
			alive++
		}
	}
	return alive == peers
}

// get fetches a URL from a node and returns the body of a 200 response.
func (c *cluster) get(url string) (string, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}

// cpuTicks sums utime+stime over the server processes.
func (c *cluster) cpuTicks() (int64, error) {
	var total int64
	for _, nd := range c.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseProcStatCPU(string(b))
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// heapAlloc sums, over the nodes, the live heap after a forced
// collection.
func (c *cluster) heapAlloc() (int64, error) {
	var total int64
	for _, nd := range c.nodes {
		body, err := c.get(nd.base + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		h, err := parseHeapAlloc(body)
		if err != nil {
			return 0, err
		}
		total += h
	}
	return total, nil
}

// peakRSS sums the nodes' resident-set high-water marks.
func (c *cluster) peakRSS() (int64, error) {
	var total int64
	for _, nd := range c.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		v, err := parseKBField(string(b), "VmHWM")
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// checkRSS fails the run when the servers' peak memory passed half of the
// machine's: beyond that the numbers measure the page cache and the OOM
// killer, not the program.
func (c *cluster) checkRSS() (int64, error) {
	rss, err := c.peakRSS()
	if err != nil {
		return 0, err
	}
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	total, err := parseKBField(string(b), "MemTotal")
	if err != nil {
		return 0, err
	}
	if rss > total/2 {
		return rss, fmt.Errorf("server peak RSS %d MB passed half of RAM (%d MB): shorten -seconds", rss>>20, total>>20)
	}
	return rss, nil
}

// counters is what a traced run scrapes before and after the window: the
// metrics exposition of every node (federated through n1 in a pool) and
// each node's /v1/stats.
type counters struct {
	metrics string
	stats   serviceStats
}

// serviceStats is the part of /v1/stats the cache rows need, summed over
// the nodes.
type serviceStats struct {
	Submitted    int64 `json:"submitted"`
	CacheHits    int64 `json:"cacheHits"`
	DiskHits     int64 `json:"diskHits"`
	FleetHits    int64 `json:"fleetHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheEntries int64 `json:"cacheEntries"`
	CacheBytes   int64 `json:"cacheBytes"`
	Workers      int64 `json:"workers"`
}

func (c *cluster) scrape() (counters, error) {
	var out counters
	path := "/metrics"
	if len(c.nodes) > 1 {
		path = "/v1/pool/metrics"
	}
	m, err := c.get(c.nodes[0].base + path)
	if err != nil {
		return out, err
	}
	out.metrics = m
	for _, nd := range c.nodes {
		body, err := c.get(nd.base + "/v1/stats")
		if err != nil {
			return out, err
		}
		var st serviceStats
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			return out, fmt.Errorf("decoding %s/v1/stats: %w", nd.base, err)
		}
		out.stats.Submitted += st.Submitted
		out.stats.CacheHits += st.CacheHits
		out.stats.DiskHits += st.DiskHits
		out.stats.FleetHits += st.FleetHits
		out.stats.CacheMisses += st.CacheMisses
		out.stats.CacheEntries += st.CacheEntries
		out.stats.CacheBytes += st.CacheBytes
		out.stats.Workers += st.Workers
	}
	return out, nil
}
