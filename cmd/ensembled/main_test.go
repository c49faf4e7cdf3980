package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/telemetry/tracing"
)

// These tests run the real server: the test binary re-executes itself
// with childEnv set, and TestMain hands such a process to main(). Each
// test is one happy path across process boundaries; the finer-grained
// assertions live in the in-process suites of internal/campaign.

const childEnv = "ENSEMBLED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep is the Table 2 campaign every test posts; reference evaluates
// the same sweep in process. poolSweep adds the same points under a
// seeded straggler plan, which the timeline kernel declines: its
// fault-free half runs where it is posted, its other half routes by
// ring ownership.
const (
	sweep     = `{"name":"chaos","configs":["table2"],"steps":8}`
	slowPlan  = `{"name":"slow","seed":7,"stragglers":[{"component":"m0.sim","factor":2}]}`
	poolSweep = `{"name":"chaos","configs":["table2"],"steps":8,"faultPlans":[null,` + slowPlan + `]}`
)

// server is one ensembled child process.
type server struct {
	base   string
	cmd    *exec.Cmd
	stderr bytes.Buffer  // read only after exited is closed
	exited chan struct{} // closed once the process has been reaped
	err    error         // cmd.Wait's result
}

// startServer launches a child server on an ephemeral loopback port
// with the given extra flags and returns once it is listening. The
// child is killed when the test ends; its stderr is logged if the test
// failed.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-log-level", "warn"}, args...)
	s := &server{cmd: exec.Command(os.Args[0], args...), exited: make(chan struct{})}
	s.cmd.Env = append(os.Environ(), childEnv+"=1")
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	t.Cleanup(func() {
		s.kill()
		if t.Failed() {
			t.Logf("server %v stderr:\n%s", args, s.stderr.String())
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			s.base = "http://" + string(b)
			return s
		}
		select {
		case <-s.exited:
			t.Fatalf("server exited before listening (%v):\n%s", s.err, s.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address")
		}
	}
}

// kill SIGKILLs the server and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// get fetches url, fails the test unless it answers 200, and returns
// the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// post submits a campaign and returns its accepted status.
func post(t *testing.T, base, body string) campaign.CampaignStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/campaigns: HTTP %d: %s", resp.StatusCode, b)
	}
	var st campaign.CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// poll reads a campaign's status until until(status) holds.
func poll(t *testing.T, base, id string, until func(campaign.CampaignStatus) bool) campaign.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var st campaign.CampaignStatus
		if err := json.Unmarshal(get(t, base+"/v1/campaigns/"+id), &st); err != nil {
			t.Fatal(err)
		}
		if until(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: gave up at %s %d/%d", id, st.Status, st.Done, st.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func finished(st campaign.CampaignStatus) bool { return st.Status != "running" }

// midFlight holds once some but not all jobs are done; a campaign that
// finishes first fails the test (the kill must land mid-campaign).
func midFlight(t *testing.T) func(campaign.CampaignStatus) bool {
	return func(st campaign.CampaignStatus) bool {
		if st.Status != "running" {
			t.Fatalf("campaign %s %s before it was caught mid-flight", st.ID, st.Status)
		}
		return st.Done >= 1 && st.Done < st.Total
	}
}

// reference fingerprints the sweep run uninterrupted in process, under
// each of plans when any are given (poolSweep's are nil and slowPlan).
func reference(t *testing.T, plans ...*faults.Plan) string {
	t.Helper()
	svc, err := campaign.NewService(campaign.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := campaign.RunCampaign(context.Background(), svc, campaign.Sweep{
		Name: "chaos", Placements: placement.ConfigsTable2(), Steps: 8, FaultPlans: plans,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// checkFingerprint fails the test unless st finished done with the
// reference fingerprint.
func checkFingerprint(t *testing.T, st campaign.CampaignStatus, want string) {
	t.Helper()
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("campaign %s: %s %s", st.ID, st.Status, st.Error)
	}
	fp, err := st.Result.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Errorf("campaign %s fingerprint %s, want %s", st.ID, fp, want)
	}
}

// readSummary consumes an SSE stream up to its summary event; nil means
// the stream ended without one.
func readSummary(t *testing.T, r io.Reader) *campaign.CampaignSummary {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "summary" {
			var sum campaign.CampaignSummary
			if err := json.Unmarshal([]byte(data), &sum); err != nil {
				t.Fatal(err)
			}
			return &sum
		}
	}
	return nil
}

func openEvents(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// metricSum adds up every sample of a Prometheus family on one server.
func metricSum(t *testing.T, base, family string) float64 {
	t.Helper()
	total := 0.0
	for _, line := range strings.Split(string(get(t, base+"/metrics")), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestServe: Table 2 cold then warm (the warm run is all cache hits,
// watched to its summary over SSE), and every route run() mounts answers.
func TestServe(t *testing.T) {
	s := startServer(t)
	cold := poll(t, s.base, post(t, s.base, sweep).ID, finished)
	if cold.Status != "done" || len(cold.Result.Ranking) != 7 {
		t.Fatalf("cold campaign: %s, %+v", cold.Status, cold.Result)
	}

	warm := post(t, s.base, sweep)
	sum := readSummary(t, openEvents(t, s.base, warm.ID).Body)
	if sum == nil || sum.Status != "done" || sum.Jobs != 7 || sum.CacheHits != sum.Jobs {
		t.Fatalf("warm campaign summary %+v, want done with 7/7 cache hits", sum)
	}

	get(t, s.base+"/healthz")
	get(t, s.base+"/readyz")
	if !bytes.Contains(get(t, s.base+"/metrics"), []byte("http_requests_total")) {
		t.Error("/metrics does not expose the HTTP layer's families")
	}
	job := cold.Result.Candidates[0].JobIDs[0]
	spans, err := tracing.ReadOTLP(bytes.NewReader(get(t, s.base+"/v1/jobs/"+job+"/spans")))
	if err != nil || len(spans) == 0 {
		t.Fatalf("job %s spans: %d, %v", job, len(spans), err)
	}
}

// TestChaos: SIGKILL mid-campaign, restart on the same state dir, and
// the resumed c-1 fingerprints like an uninterrupted run.
func TestChaos(t *testing.T) {
	want := reference(t)
	args := []string{"-state-dir", t.TempDir(), "-workers", "2", "-exec-delay", "30ms"}
	s := startServer(t, args...)
	if st := post(t, s.base, sweep); st.ID != "c-1" {
		t.Fatalf("campaign id %q, want c-1", st.ID)
	}
	poll(t, s.base, "c-1", midFlight(t))
	s.kill()

	s = startServer(t, args...)
	checkFingerprint(t, poll(t, s.base, "c-1", finished), want)
}

// TestPool: three processes form one pool; a campaign on n1 runs its
// kernel-served jobs itself, forwards its engine jobs to their owners
// and survives SIGKILL of n3, and its re-post on n2 answers the engine
// jobs through the fleet cache.
func TestPool(t *testing.T) {
	var slow faults.Plan
	if err := json.Unmarshal([]byte(slowPlan), &slow); err != nil {
		t.Fatal(err)
	}
	want := reference(t, nil, &slow)
	var nodes []*server
	for i := 1; i <= 3; i++ {
		args := []string{"-node-id", fmt.Sprintf("n%d", i), "-heartbeat", "100ms", "-workers", "2", "-exec-delay", "30ms"}
		if i > 1 {
			args = append(args, "-join", nodes[0].base)
		}
		nodes = append(nodes, startServer(t, args...))
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range nodes {
		for !converged(t, n.base, len(nodes)) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw %d alive peers", n.base, len(nodes))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	id := post(t, nodes[0].base, poolSweep).ID
	poll(t, nodes[0].base, id, midFlight(t))
	nodes[2].kill()
	st := poll(t, nodes[0].base, id, finished)
	checkFingerprint(t, st, want)
	checkRouted(t, nodes[0].base, "n1", st)

	st = poll(t, nodes[1].base, post(t, nodes[1].base, poolSweep).ID, finished)
	checkFingerprint(t, st, want)
	checkRouted(t, nodes[1].base, "n2", st)
	for _, family := range []string{"pool_forwards_total", "pool_cache_hits_total"} {
		if metricSum(t, nodes[0].base, family)+metricSum(t, nodes[1].base, family) == 0 {
			t.Errorf("%s is 0 on the survivors", family)
		}
	}
}

// checkRouted fails the test unless the done campaign st, posted to the
// node id at base, ran every kernel-served job (the fault-free half of
// poolSweep) on that node and had at least one engine job answered by a
// peer.
func checkRouted(t *testing.T, base, id string, st campaign.CampaignStatus) {
	t.Helper()
	peer := 0
	for _, c := range st.Result.Candidates {
		for _, job := range c.JobIDs {
			var js struct {
				Node string `json:"node"`
			}
			if err := json.Unmarshal(get(t, base+"/v1/jobs/"+job), &js); err != nil {
				t.Fatal(err)
			}
			switch {
			case c.Fault == "" && js.Node != id:
				t.Errorf("kernel-served job %s (%s) ran on %q, want the submitter %s", job, c.Label, js.Node, id)
			case c.Fault != "" && js.Node != "" && js.Node != id:
				peer++
			}
		}
	}
	if peer == 0 {
		t.Errorf("no engine job posted to %s ran on a peer; the campaign did not shard", id)
	}
}

// converged reports whether the node at base is ready and sees n alive
// peers.
func converged(t *testing.T, base string, n int) bool {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var view struct {
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
	}
	if err := json.Unmarshal(get(t, base+"/v1/pool/peers"), &view); err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, m := range view.Members {
		if m.State == "alive" {
			alive++
		}
	}
	return alive == n
}

// TestSIGTERMFinishesOpenStreams: SIGTERM mid-campaign lets the open SSE
// stream run to its summary, and the process exits 0.
func TestSIGTERMFinishesOpenStreams(t *testing.T) {
	s := startServer(t, "-workers", "2", "-exec-delay", "30ms")
	st := post(t, s.base, sweep)
	br := bufio.NewReader(openEvents(t, s.base, st.ID).Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before its first job event: %v", err)
		}
		if line == "event: job\n" {
			break
		}
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if sum := readSummary(t, br); sum == nil || sum.Status != "done" || sum.Jobs != 7 {
		t.Errorf("summary after SIGTERM %+v, want done with 7 jobs", sum)
	}
	<-s.exited
	if s.err != nil {
		t.Errorf("server exit after SIGTERM: %v", s.err)
	}
}
