//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef describes one end-to-end metric: its unit, which direction
// is better, and the share of the parent's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json repeats this
// table (TestBenchmarkJSONMatches keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"campaigns_per_s", "1/s", "higher", 0.12},
	{"submit_done_p50_ms", "ms", "lower", 0.20},
	{"submit_done_p90_ms", "ms", "lower", 0.20},
	{"server_cpu_ms_per_campaign", "ms", "lower", 0.12},
	{"retained_kb_per_campaign", "KB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// metric is one measured value. N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runConfig is one run of one workload.
type runConfig struct {
	workload workload
	seed     int64
	window   time.Duration
	traced   bool
	// traceOut, when set, receives the traced run's spans.
	traceOut string
}

// runResult is what one run reports.
type runResult struct {
	Attempted int
	Failed    int
	// Errors holds the first failure of each kind, for the operator.
	Errors []string
	// EndToEnd is filled by an untraced run, PerLayer by a traced one.
	EndToEnd map[string]metric
	PerLayer map[string]metric
	// Info holds what is printed but not gated: p99 swings too much
	// between identical runs and peak RSS moves with GC timing.
	Info map[string]metric
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// setupRepeats is how many times an untraced run times set-up; the median
// is setup_s and the last one serves the window.
const setupRepeats = 3

// clients is min(nproc, 2): two callers keep two cores busy, and on one
// core a second caller only queues.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runOnce builds nothing: exe is the server binary, dir a scratch
// directory. It sets the cluster up, runs the window, takes the
// measurements, stops the servers, and checks the kept results.
func runOnce(ctx context.Context, exe, dir string, cfg runConfig) (*runResult, error) {
	wl := cfg.workload
	var c *cluster
	defer func() {
		if c != nil {
			c.stop()
		}
	}()

	// Set-up: spawn → ready → primed, timed as a whole. Repeated so that
	// one slow fork or a cold page cache does not decide setup_s, which a
	// traced run does not report.
	setups := setupRepeats
	if cfg.traced {
		setups = 1
	}
	var setupSec []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		var err error
		if c, err = startCluster(ctx, exe, dir, wl.nodes); err != nil {
			return nil, err
		}
		if err := prime(ctx, c, wl, cfg.seed); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}

	heap0, err := c.heapAlloc()
	if err != nil {
		return nil, err
	}
	var before counters
	if cfg.traced {
		if before, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := c.cpuTicks()
	if err != nil {
		return nil, err
	}

	w := runWindow(ctx, c, wl, cfg.seed, clients(), cfg.window, cfg.traced)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cpu1, err := c.cpuTicks()
	if err != nil {
		return nil, err
	}
	var after counters
	if cfg.traced {
		if after, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	heap1, err := c.heapAlloc()
	if err != nil {
		return nil, err
	}
	rss, err := c.checkRSS()
	if err != nil {
		return nil, err
	}
	c.stop()

	res := &runResult{Attempted: w.attempted(), Failed: w.failed}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no campaign finished inside a %v window", wl.name, cfg.window)
	}
	if w.firstErr != nil {
		res.Errors = append(res.Errors, w.firstErr.Error())
	}
	mismatches, verr := verify(ctx, w.kept)
	if verr != nil {
		res.Errors = append(res.Errors, verr.Error())
	}
	res.Failed += mismatches

	n := float64(res.Attempted)
	cpuMs := float64(cpu1-cpu0) * 1000 / clockTicksPerSec
	res.Info = map[string]metric{
		"submit_done_p99_ms": {ms(percentile(w.latencies, w.failed, 0.99)), "ms", res.Attempted},
		"peak_rss_mb":        {float64(rss) / (1 << 20), "MB", wl.nodes},
		"window_s":           {w.elapsed.Seconds(), "s", 1},
		"verified_campaigns": {float64(len(w.kept)), "count", len(w.kept)},
	}
	if !cfg.traced {
		res.EndToEnd = map[string]metric{
			"campaigns_per_s":            {n / w.elapsed.Seconds(), "1/s", res.Attempted},
			"submit_done_p50_ms":         {ms(percentile(w.latencies, w.failed, 0.50)), "ms", res.Attempted},
			"submit_done_p90_ms":         {ms(percentile(w.latencies, w.failed, 0.90)), "ms", res.Attempted},
			"server_cpu_ms_per_campaign": {cpuMs / n, "ms", res.Attempted},
			"retained_kb_per_campaign":   {float64(heap1-heap0) / 1024 / n, "KB", res.Attempted},
			"setup_s":                    {median(setupSec), "s", len(setupSec)},
		}
		return res, nil
	}

	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, w.logs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
		}
	}
	res.PerLayer = make(map[string]metric)
	spanMetrics(res.PerLayer, summarizeSpans(w.logs))
	counterMetrics(res.PerLayer, before, after, w, n)
	res.Info["campaigns_per_s.traced"] = metric{n / w.elapsed.Seconds(), "1/s", res.Attempted}
	res.Info["server_cpu_ms_per_campaign.traced"] = metric{cpuMs / n, "ms", res.Attempted}
	probes, err := runProbes(ctx, dir)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		res.PerLayer[k] = v
	}
	res.PerLayer["budget.explained_share"] = metric{
		budgetUs(wl.name, probes) / 1000 / (cpuMs / n), "share", res.Attempted}
	return res, nil
}

// spanMetrics reports the median of each benchmark-side span.
func spanMetrics(out map[string]metric, s spanSummary) {
	put := func(name string, xs []float64) {
		out[name] = metric{median(xs), "ms", len(xs)}
	}
	put("bench.span.http_post_ms", s.byName[spanPost])
	put("bench.span.events_stream_ms", s.byName[spanStream])
	put("bench.span.first_event_ms", s.firstEvent)
	put("bench.span.http_get_result_ms", s.byName[spanGetResult])
	put("bench.span.client_decode_ms", s.byName[spanDecode])
	put("bench.span.campaign_self_ms", s.self)
}

// counterMetrics derives the rows that come from the program's own
// counters, as differences over the window.
func counterMetrics(out map[string]metric, before, after counters, w *window, campaigns float64) {
	delta := func(family string, labels ...string) float64 {
		return promSum(after.metrics, family, labels...) - promSum(before.metrics, family, labels...)
	}
	per := func(sum, count float64) float64 {
		if count == 0 {
			return 0
		}
		return sum / count
	}
	waited := delta("campaign_queue_wait_seconds_count")
	executed := delta("campaign_execute_seconds_count")
	out["campaign.service.queue_wait_ms_per_job"] = metric{
		1000 * per(delta("campaign_queue_wait_seconds_sum"), waited), "ms", int(waited)}
	out["campaign.service.execute_ms_per_job"] = metric{
		1000 * per(delta("campaign_execute_seconds_sum"), executed), "ms", int(executed)}
	out["campaign.service.worker_busy_share"] = metric{
		per(delta("campaign_worker_busy_seconds_total"), w.elapsed.Seconds()*float64(after.stats.Workers)),
		"share", int(executed)}

	// /v1/stats counts a job a peer's cache answered as a miss (it was
	// enqueued) and then as a fleet hit, so the shares are taken over
	// submissions, not over hits+misses. CampaignResult.cacheHits omits
	// fleet hits, which is why the stats are the source here.
	sub := float64(after.stats.Submitted - before.stats.Submitted)
	fleet := float64(after.stats.FleetHits - before.stats.FleetHits)
	hits := float64(after.stats.CacheHits - before.stats.CacheHits)
	disk := float64(after.stats.DiskHits - before.stats.DiskHits)
	misses := float64(after.stats.CacheMisses - before.stats.CacheMisses)
	out["campaign.cache.memory_hit_share"] = metric{per(hits-disk-fleet, sub), "share", int(sub)}
	out["campaign.cache.fleet_hit_share"] = metric{per(fleet, sub), "share", int(sub)}
	out["campaign.cache.miss_share"] = metric{per(misses-fleet, sub), "share", int(sub)}
	out["campaign.cache.entries_end"] = metric{float64(after.stats.CacheEntries), "count", 1}
	out["campaign.cache.bytes_end"] = metric{float64(after.stats.CacheBytes), "B", 1}

	out["campaign.pool.forward_share"] = metric{per(delta("pool_forwards_total"), sub), "share", int(sub)}
	out["campaign.pool.forward_errors"] = metric{
		delta("pool_forward_errors_total") + delta("pool_cache_lookup_errors_total"), "count", int(campaigns)}
}
