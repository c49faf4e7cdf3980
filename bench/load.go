//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ensemblekit/internal/campaign"
)

const (
	// campaignTimeout bounds one campaign, POST to result; past it the
	// campaign counts as failed.
	campaignTimeout = 60 * time.Second
	// verifySample is how many campaigns per run are re-evaluated in
	// process after the window.
	verifySample = 16
)

// submitter does what a user of the service does with one campaign: POST
// it, follow its event stream to the summary, fetch the ranked result.
type submitter struct {
	hc      *http.Client
	bases   []string      // node index → base URL
	timeout time.Duration // per campaign, POST to result
	log     *spanLog      // nil when the run is untraced
}

// kept is a campaign whose result is checked again after the window.
type kept struct {
	sweep  sweepSpec
	result []byte // body of GET /v1/campaigns/{id}
}

// resultCheck is the part of the result body every campaign is checked
// on inside the window.
type resultCheck struct {
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		Jobs    int               `json:"jobs"`
		Failed  int               `json:"failed"`
		Ranking []json.RawMessage `json:"ranking"`
	} `json:"result"`
}

// run drives one campaign to its result and checks it. The returned
// latency runs from the POST being sent to the result body being read.
func (s *submitter) run(ctx context.Context, req request, traceID string) (result []byte, latency time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	base := s.bases[req.node]
	start := time.Now()
	defer func() {
		s.log.add(traceID, spanCampaign, "", start, time.Now())
	}()

	// POST: 202 and the campaign's ID.
	resp, err := s.do(ctx, http.MethodPost, base+"/v1/campaigns", req.sweep.body())
	if err != nil {
		return nil, 0, err
	}
	body, err := readAll(resp)
	s.log.add(traceID, spanPost, spanCampaign, start, time.Now())
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("POST /v1/campaigns: HTTP %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
		return nil, 0, fmt.Errorf("POST /v1/campaigns: no campaign id in %s", body)
	}

	// Event stream, to the summary.
	if err := s.follow(ctx, base+"/v1/campaigns/"+accepted.ID+"/events", traceID); err != nil {
		return nil, 0, err
	}

	// Ranked result.
	t0 := time.Now()
	resp, err = s.do(ctx, http.MethodGet, base+"/v1/campaigns/"+accepted.ID, nil)
	if err != nil {
		return nil, 0, err
	}
	result, err = readAll(resp)
	done := time.Now()
	s.log.add(traceID, spanGetResult, spanCampaign, t0, done)
	if err != nil {
		return nil, 0, err
	}
	latency = done.Sub(start)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET campaign %s: HTTP %d", accepted.ID, resp.StatusCode)
	}

	var chk resultCheck
	err = json.Unmarshal(result, &chk)
	s.log.add(traceID, spanDecode, spanCampaign, done, time.Now())
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("campaign %s: undecodable result: %w", accepted.ID, err)
	case chk.Status != "done" || chk.Result == nil:
		return nil, 0, fmt.Errorf("campaign %s: status %q %s", accepted.ID, chk.Status, chk.Error)
	case chk.Result.Jobs != sweepJobs || chk.Result.Failed != 0:
		return nil, 0, fmt.Errorf("campaign %s: %d jobs (%d failed), want %d (0 failed)",
			accepted.ID, chk.Result.Jobs, chk.Result.Failed, sweepJobs)
	case len(chk.Result.Ranking) != sweepCandidates:
		return nil, 0, fmt.Errorf("campaign %s: ranking of %d, want %d", accepted.ID, len(chk.Result.Ranking), sweepCandidates)
	}
	return result, latency, nil
}

// follow reads a campaign's SSE stream until its summary event and
// checks the summary.
func (s *submitter) follow(ctx context.Context, url, traceID string) error {
	t0 := time.Now()
	resp, err := s.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	defer func() {
		// Read to the end so the connection goes back to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var summary campaign.CampaignSummary
	var first time.Time
	event, seen := "", false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for !seen && sc.Scan() {
		line := sc.Text()
		if first.IsZero() {
			first = time.Now()
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "summary":
				if err := json.Unmarshal([]byte(data), &summary); err != nil {
					return fmt.Errorf("SSE summary: %w", err)
				}
				seen = true
			case "error":
				return fmt.Errorf("SSE stream errored: %s", data)
			}
		}
	}
	s.log.add(traceID, spanStream, spanCampaign, t0, time.Now())
	s.log.mark(markFirst, first)
	if err := sc.Err(); err != nil {
		return fmt.Errorf("SSE stream: %w", err)
	}
	switch {
	case !seen:
		return fmt.Errorf("SSE stream ended without a summary")
	case summary.Status != "done":
		return fmt.Errorf("SSE summary: status %q %s", summary.Status, summary.Error)
	case summary.Jobs != sweepJobs || summary.FailedJobs != 0:
		return fmt.Errorf("SSE summary: %d jobs (%d failed), want %d (0 failed)", summary.Jobs, summary.FailedJobs, sweepJobs)
	}
	return nil
}

func (s *submitter) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.hc.Do(req)
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// window is what the closed loop measured.
type window struct {
	elapsed   time.Duration
	latencies []time.Duration // successful campaigns
	failed    int
	firstErr  error
	kept      []kept
	logs      []*spanLog
}

func (w *window) attempted() int { return len(w.latencies) + w.failed }

// runWindow runs the closed loop: each of the clients sends its next
// campaign only once the previous one has its result, until dur has
// passed; a campaign started inside the window runs to its end. Each
// client keeps a seed-chosen reservoir of results for the check after the
// window.
func runWindow(ctx context.Context, c *cluster, wl workload, seed int64, clients int, dur time.Duration, traced bool) *window {
	bases := c.bases()
	type clientResult struct {
		latencies []time.Duration
		failed    int
		firstErr  error
		kept      []kept
		log       *spanLog
	}
	results := make([]clientResult, clients)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			if traced {
				res.log = &spanLog{}
			}
			sub := &submitter{hc: hc, bases: bases, timeout: campaignTimeout, log: res.log}
			rng := rand.New(rand.NewSource(seed<<8 | int64(ci)))
			keep := verifySample / clients
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				req := wl.gen(seed, ci, k)
				body, lat, err := sub.run(ctx, req, fmt.Sprintf("c%d-k%d", ci, k))
				if err != nil {
					if ctx.Err() != nil {
						return // interrupted, not a failure of the server
					}
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				res.latencies = append(res.latencies, lat)
				// Reservoir sampling: every campaign of the window is
				// equally likely to be re-checked.
				if len(res.kept) < keep {
					res.kept = append(res.kept, kept{req.sweep, body})
				} else if i := rng.Intn(k + 1); i < keep {
					res.kept[i] = kept{req.sweep, body}
				}
			}
		}(ci)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for _, r := range results {
		w.latencies = append(w.latencies, r.latencies...)
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
		w.kept = append(w.kept, r.kept...)
		w.logs = append(w.logs, r.log)
	}
	return w
}

// prime submits the workload's set-up campaigns one after another; any
// failure fails set-up.
func prime(ctx context.Context, c *cluster, wl workload, seed int64) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	sub := &submitter{hc: hc, bases: c.bases(), timeout: campaignTimeout}
	for i, req := range wl.prime(seed) {
		if _, _, err := sub.run(ctx, req, ""); err != nil {
			return fmt.Errorf("set-up campaign %d: %w", i, err)
		}
	}
	return nil
}

// verify re-evaluates the kept campaigns in process, on a fresh service
// with no cache, and compares the science fingerprint of each with that
// of the result the server returned. It returns how many differ.
func verify(ctx context.Context, samples []kept) (mismatches int, firstErr error) {
	svc, err := campaign.NewService(campaign.Config{CacheBytes: -1})
	if err != nil {
		return len(samples), err
	}
	defer svc.Close()
	for _, s := range samples {
		if err := verifyOne(ctx, svc, s); err != nil {
			mismatches++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return mismatches, firstErr
}

func verifyOne(ctx context.Context, svc *campaign.Service, s kept) error {
	var st campaign.CampaignStatus
	if err := json.Unmarshal(s.result, &st); err != nil {
		return fmt.Errorf("%s: decoding result: %w", s.sweep.Name, err)
	}
	if st.Result == nil {
		return fmt.Errorf("%s: result body has no result", s.sweep.Name)
	}
	got, err := st.Result.Fingerprint()
	if err != nil {
		return err
	}
	ref, err := campaign.RunCampaign(ctx, svc, s.sweep.sweep())
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", s.sweep.Name, err)
	}
	want, err := ref.Fingerprint()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: fingerprint %s from the server, %s in process", s.sweep.Name, got[:16], want[:16])
	}
	return nil
}
