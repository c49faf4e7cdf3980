//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/network"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/sim"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// The layer probes time each package's exported functions in process,
// after the servers are stopped, on the two job shapes the workloads use
// (.shallow: 8 steps, no jitter; .deep: 128 steps, jitter 0.02). A
// per-job number is the mean over the 7 Table 2 placements, so it
// multiplies by 21 into a campaign.

// probeBatches and probeBatchTime size one timed probe: the median of 5
// batch means, each batch about 15 ms of calls. The unit test shortens
// the batch.
const probeBatches = 5

var probeBatchTime = 15 * time.Millisecond

// sink keeps the compiler from discarding a probed call's result.
var sink any

// timeOp returns the median batch mean of one call of fn, in
// nanoseconds, and how many calls it timed.
func timeOp(fn func()) (float64, int) {
	t0 := time.Now()
	fn() // warms caches and sizes the batch
	one := time.Since(t0)
	per := 1
	if one < probeBatchTime {
		per = int(probeBatchTime / (one + 1))
	}
	means := make([]float64, probeBatches)
	for b := range means {
		t0 = time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(means), per * probeBatches
}

type probeSet map[string]metric

func (p probeSet) us(name string, fn func()) {
	ns, n := timeOp(fn)
	p[name] = metric{ns / 1000, "us", n}
}

func (p probeSet) ns(name string, fn func()) {
	v, n := timeOp(fn)
	p[name] = metric{v, "ns", n}
}

// shape is one of the two job shapes: the 7 Table 2 jobs of one seed, and
// the whole 21-job sweep.
type shape struct {
	suffix string
	sweep  campaign.Sweep
	specs  []campaign.JobSpec
}

func newShape(suffix string, steps int, jitter float64) (shape, error) {
	sw := sweepSpec{Name: "probe" + suffix, Steps: steps, Seeds: [sweepSeeds]int64{1, 2, 3}, Jitter: jitter}.sweep()
	cands, err := sw.Jobs()
	if err != nil {
		return shape{}, err
	}
	sh := shape{suffix: suffix, sweep: sw}
	for _, c := range cands {
		sh.specs = append(sh.specs, c.Specs[0])
	}
	return sh, nil
}

// timePerJob times fn over the shape's specs and returns the mean per
// job in microseconds and the jobs timed.
func timePerJob(sh shape, fn func(campaign.JobSpec)) (float64, int) {
	ns, n := timeOp(func() {
		for _, s := range sh.specs {
			fn(s)
		}
	})
	return ns / 1000 / float64(len(sh.specs)), n * len(sh.specs)
}

// perJob records timePerJob under name and returns the value.
func (p probeSet) perJob(name string, sh shape, fn func(campaign.JobSpec)) float64 {
	v, n := timePerJob(sh, fn)
	p[name] = metric{v, "us", n}
	return v
}

// wiredConfig is a service configured the way cmd/ensembled wires it by
// default: metrics registry, obs recorder bridged into it, tracer, and an
// error-level logger.
func wiredConfig(workers int) campaign.Config {
	reg := telemetry.NewRegistry()
	start := time.Now()
	rec := obs.NewRecorder(func() float64 { return time.Since(start).Seconds() })
	rec.SetSink(telemetry.NewObsSink(reg))
	return campaign.Config{
		Workers:  workers,
		Retry:    campaign.RetryPolicy{MaxAttempts: 3},
		Recorder: rec,
		Metrics:  reg,
		Logger:   telemetry.NewLogger(io.Discard, telemetry.LevelError),
		Tracer:   tracing.NewTracer(tracing.NewStore(0, 0)),
	}
}

// runProbes runs every layer probe and returns the per-layer metrics
// that do not depend on a workload. dir is a scratch directory.
func runProbes(ctx context.Context, dir string) (probeSet, error) {
	p := make(probeSet)
	shallow, err := newShape(".shallow", shallowSteps, 0)
	if err != nil {
		return nil, err
	}
	deep, err := newShape(".deep", deepSteps, deepJitter)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return probeSpec(p, shallow) },
		func() error { return probeRuntime(p, shallow, deep) },
		func() error { return probeSimNetwork(p) },
		func() error { return probeRun(p, shallow, deep) },
		func() error { return probeService(ctx, p, shallow, deep) },
		func() error { return probeTracing(ctx, p, shallow, deep) },
		func() error { return probeEvents(p) },
		func() error { return probeJournal(p, dir, shallow) },
		func() error { return probePool(ctx, p, shallow) },
		func() error { return probeHTTP(ctx, p, shallow) },
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := step(); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	return p, nil
}

func probeSpec(p probeSet, sh shape) error {
	bytes := 0
	for _, s := range sh.specs {
		b, err := s.CanonicalJSON()
		if err != nil {
			return err
		}
		bytes += len(b)
	}
	p["campaign.spec.canonical_bytes"] = metric{float64(bytes) / float64(len(sh.specs)), "B", len(sh.specs)}
	p.perJob("campaign.spec.hash_us", sh, func(s campaign.JobSpec) { sink, _ = s.Hash() })
	p.us("campaign.planner.expand_us", func() { sink, _ = sh.sweep.Jobs() })
	return nil
}

// simulate runs one job's simulation the way the service's runner does:
// the spec's options and fault plan, plus the hints given here.
func simulate(s campaign.JobSpec, world *runtime.World, fastPath bool, rec *obs.Recorder) (runtime.RunInfo, error) {
	o := s.Sim.Options()
	o.Faults = s.Faults
	o.World, o.FastPath, o.Recorder = world, fastPath, rec
	tr, info, err := runtime.RunSimulatedInfo(s.Cluster, s.Placement, s.Ensemble, o)
	sink = tr
	return info, err
}

func probeRuntime(p probeSet, shallow, deep shape) error {
	for _, sh := range []shape{shallow, deep} {
		world := runtime.NewWorld()
		desEvents, obsEvents := int64(0), 0
		for _, s := range sh.specs {
			rec := obs.NewRecorder(nil)
			info, err := simulate(s, world, false, rec)
			if err != nil {
				return err
			}
			desEvents += info.DESEvents
			obsEvents += len(rec.Events())
		}
		jobs := float64(len(sh.specs))
		p["runtime.des_events"+sh.suffix] = metric{float64(desEvents) / jobs, "count", len(sh.specs)}
		p["obs.events_per_job"+sh.suffix] = metric{float64(obsEvents) / jobs, "count", len(sh.specs)}
		us := p.perJob("runtime.des_us"+sh.suffix, sh, func(s campaign.JobSpec) { _, _ = simulate(s, world, false, nil) })
		if sh.suffix == ".deep" {
			p["runtime.ns_per_event.deep"] = metric{us * 1000 * jobs / float64(desEvents), "ns", int(desEvents)}
			recorded, n := timePerJob(sh, func(s campaign.JobSpec) { _, _ = simulate(s, world, false, obs.NewRecorder(nil)) })
			p["obs.recorded_over_plain.deep"] = metric{recorded / us, "ratio", n}
		}
	}

	world := runtime.NewWorld()
	p.perJob("runtime.fastpath_us.shallow", shallow, func(s campaign.JobSpec) { _, _ = simulate(s, world, true, nil) })

	// One cold campaign against a fresh World: the plan key leaves the
	// seed out, so 7 of its 21 jobs build a plan and 14 reuse one.
	cands, err := shallow.sweep.Jobs()
	if err != nil {
		return err
	}
	world = runtime.NewWorld()
	reused, total := 0, 0
	for _, c := range cands {
		for _, s := range c.Specs {
			info, err := simulate(s, world, false, nil)
			if err != nil {
				return err
			}
			total++
			if info.PlanReused {
				reused++
			}
		}
	}
	p["runtime.plan_reuse_share"] = metric{float64(reused) / float64(total), "share", total}
	return nil
}

func probeSimNetwork(p probeSet) error {
	const procs, waits = 10, 1000
	var runErr error
	ns, n := timeOp(func() {
		env := sim.NewEnv()
		for i := 0; i < procs; i++ {
			env.Go("p", func(pr *sim.Proc) error {
				for k := 0; k < waits; k++ {
					if err := pr.Wait(1); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := env.Run(); err != nil {
			runErr = err
		}
	})
	p["sim.ns_per_event"] = metric{ns / (procs * waits), "ns", n * procs * waits}

	p.us("network.fabric_32flows_us", func() {
		env := sim.NewEnv()
		fab, err := network.NewFabric(env, network.Config{Nodes: 8, NICBandwidth: 8e9})
		if err != nil {
			runErr = err
			return
		}
		for f := 0; f < 32; f++ {
			src, dst := f%8, (f+1)%8
			env.Go("xfer", func(pr *sim.Proc) error { return fab.Transfer(pr, src, dst, 1e9) })
		}
		if err := env.Run(); err != nil {
			runErr = err
		}
	})
	return runErr
}

func probeRun(p probeSet, shallow, deep shape) error {
	for _, sh := range []shape{shallow, deep} {
		results := make(map[string]*campaign.Result, len(sh.specs)) // by placement name
		for _, s := range sh.specs {
			res, err := campaign.Execute(s)
			if err != nil {
				return err
			}
			results[s.Placement.Name] = res
		}
		p.perJob("campaign.run.execute_us"+sh.suffix, sh, func(s campaign.JobSpec) { sink, _ = campaign.Execute(s) })
		p.perJob("campaign.accounting.from_trace_us"+sh.suffix, sh, func(s campaign.JobSpec) {
			sink = accounting.FromTrace(results[s.Placement.Name].Trace)
		})
		if sh.suffix != ".shallow" {
			continue
		}
		// What a candidate's aggregation costs: steady state and
		// efficiency per member, then the Eq. 5-9 report.
		var repErr error
		p.perJob("indicators.report_us", sh, func(s campaign.JobSpec) {
			members := results[s.Placement.Name].Trace.Members
			effs := make([]float64, 0, len(members))
			for _, m := range members {
				ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
				if err != nil {
					repErr = err
					return
				}
				e, err := ss.Efficiency()
				if err != nil {
					repErr = err
					return
				}
				effs = append(effs, e)
			}
			rep, err := indicators.FullReport(s.Placement, effs)
			if err != nil {
				repErr = err
			}
			sink = rep
		})
		if repErr != nil {
			return repErr
		}
	}
	return nil
}

// submitAll submits the specs to the service, each with a seed no earlier
// call used when fresh is set, and waits for every result.
func submitAll(ctx context.Context, svc *campaign.Service, specs []campaign.JobSpec, fresh *int64) error {
	for _, s := range specs {
		if fresh != nil {
			*fresh++
			s.Sim.Seed = *fresh
		}
		j, err := svc.Submit(ctx, s, campaign.SubmitOptions{})
		if err != nil {
			return err
		}
		if _, err := j.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

func probeService(ctx context.Context, p probeSet, shallow, deep shape) error {
	var runErr error
	note := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	// missUs times Submit + Wait of never-seen jobs on one worker.
	missUs := func(cfg campaign.Config, sh shape) (float64, int, error) {
		svc, err := campaign.NewService(cfg)
		if err != nil {
			return 0, 0, err
		}
		defer svc.Close()
		seed := int64(1 << 20)
		ns, n := timeOp(func() { note(submitAll(ctx, svc, sh.specs, &seed)) })
		return ns / 1000 / float64(len(sh.specs)), n * len(sh.specs), runErr
	}
	for _, sh := range []shape{shallow, deep} {
		bare, n, err := missUs(campaign.Config{Workers: 1}, sh)
		if err != nil {
			return err
		}
		wired, _, err := missUs(wiredConfig(1), sh)
		if err != nil {
			return err
		}
		p["campaign.service.submit_miss_us"+sh.suffix] = metric{bare, "us", n}
		p["campaign.service.wired_over_bare"+sh.suffix] = metric{wired / bare, "ratio", n}
	}
	p["campaign.service.overhead_us.shallow"] = metric{
		p["campaign.service.submit_miss_us.shallow"].Value - p["campaign.run.execute_us.shallow"].Value,
		"us", p["campaign.service.submit_miss_us.shallow"].N}

	svc, err := campaign.NewService(campaign.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := campaign.RunCampaign(ctx, svc, shallow.sweep); err != nil {
		return err
	}
	p.perJob("campaign.service.submit_hit_us", shallow, func(s campaign.JobSpec) {
		note(submitAll(ctx, svc, []campaign.JobSpec{s}, nil))
	})
	p.us("campaign.planner.run_campaign_warm_us", func() {
		_, err := campaign.RunCampaign(ctx, svc, shallow.sweep)
		note(err)
	})
	return runErr
}

func probeTracing(ctx context.Context, p probeSet, shallow, deep shape) error {
	tracer := tracing.NewTracer(tracing.NewStore(0, 0))
	p.ns("telemetry.tracing.span_ns", func() {
		_, sp := tracer.StartSpan(ctx, "probe", "probe", tracing.String("k", "v"))
		sp.End()
	})
	for _, sh := range []shape{shallow, deep} {
		spans, err := spansPerJob(ctx, sh)
		if err != nil {
			return err
		}
		p["telemetry.tracing.spans_per_job"+sh.suffix] = metric{spans, "count", len(sh.specs)}
	}
	return nil
}

// spansPerJob runs each of the shape's jobs under its own root span on a
// service wired like cmd/ensembled and returns the mean number of spans
// a job leaves in the store.
func spansPerJob(ctx context.Context, sh shape) (float64, error) {
	cfg := wiredConfig(1)
	svc, err := campaign.NewService(cfg)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	spans := 0
	for _, s := range sh.specs {
		rootCtx, root := cfg.Tracer.StartSpan(ctx, "probe", "probe")
		j, err := svc.Submit(rootCtx, s, campaign.SubmitOptions{})
		if err == nil {
			_, err = j.Wait(ctx)
		}
		root.End()
		if err != nil {
			return 0, err
		}
		// The job span ends just after Wait returns; the count is exact
		// once it has reached the store. The probe's own root is not the
		// job's.
		n, err := spansOnceJobEnded(cfg.Tracer.Store(), root.Context().TraceID)
		if err != nil {
			return 0, err
		}
		spans += n - 1
	}
	return float64(spans) / float64(len(sh.specs)), nil
}

// spansOnceJobEnded waits for the trace's job span to complete and
// returns how many spans the trace then holds.
func spansOnceJobEnded(st *tracing.Store, id tracing.TraceID) (int, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := st.Spans(id)
		for _, d := range spans {
			if d.Kind == "job" {
				return len(spans), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("tracing probe: job span never completed (%d spans)", len(spans))
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func probeEvents(p probeSet) error {
	const hist, buf = 4096, 256
	b := campaign.NewBroadcaster(hist, buf)
	ev := campaign.JobEvent{Campaign: "c-1", Job: "j-1", Hash: strings.Repeat("a", 64), Label: "C1.5", Status: "done"}
	for i := 0; i < hist; i++ {
		b.Publish(ev)
	}
	p.ns("campaign.events.publish_ns", func() { b.Publish(ev) })
	p.us("campaign.events.subscribe_full_ring_us", func() {
		replay, _, cancel := b.Subscribe()
		sink = replay
		cancel()
	})
	return nil
}

func probeJournal(p probeSet, dir string, sh shape) error {
	jnl, _, err := journal.Open(filepath.Join(dir, "probe-journal.wal"), -1)
	if err != nil {
		return err
	}
	defer jnl.Close()
	spec, err := sh.specs[0].CanonicalJSON()
	if err != nil {
		return err
	}
	var appendErr error
	n := 0
	p.us("campaign.journal.append_us", func() {
		n++
		if err := jnl.Append(journal.Record{
			Type: journal.TypeEnqueue, Hash: fmt.Sprintf("%064x", n), Label: "probe", Spec: spec,
		}); err != nil {
			appendErr = err
		}
	})
	return appendErr
}

// cannedLocal answers the pool's calls with fixed bytes: the probe prices
// the peer protocol, not an execution.
type cannedLocal struct{ result []byte }

func (l cannedLocal) CachedResultJSON(string) ([]byte, bool) { return l.result, true }
func (l cannedLocal) ExecuteForwardedJSON(context.Context, []byte, string) ([]byte, error) {
	return l.result, nil
}
func (l cannedLocal) SubmitJSON([]byte, string, int) error { return nil }
func (l cannedLocal) NodeAccountingJSON() []byte           { return []byte(`{}`) }

func probePool(ctx context.Context, p probeSet, sh shape) error {
	ring := pool.NewRing([]string{"n1", "n2", "n3"}, 0)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*2654435761)
	}
	i := 0
	p.ns("campaign.pool.route_ns", func() {
		sink = ring.Owner(keys[i%len(keys)])
		i++
	})

	// Two in-process nodes on loopback sockets moving a real shallow
	// result, as a forwarded execution and as a fleet-cache hit.
	res, err := campaign.Execute(sh.specs[0])
	if err != nil {
		return err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	specJSON, err := sh.specs[0].CanonicalJSON()
	if err != nil {
		return err
	}
	newNode := func(id string, seeds []string) (*pool.Pool, *httptest.Server, error) {
		var h atomic.Pointer[http.Handler]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hp := h.Load(); hp != nil {
				(*hp).ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		}))
		pl, err := pool.New(pool.Config{
			SelfID: id, Advertise: ts.URL, Join: seeds,
			Heartbeat: 10 * time.Millisecond, Local: cannedLocal{payload},
		})
		if err != nil {
			ts.Close()
			return nil, nil, err
		}
		handler := pl.Handler()
		h.Store(&handler)
		pl.Start()
		return pl, ts, nil
	}
	p1, ts1, err := newNode("n1", nil)
	if err != nil {
		return err
	}
	defer ts1.Close()
	defer p1.Close()
	p2, ts2, err := newNode("n2", []string{ts1.URL})
	if err != nil {
		return err
	}
	defer ts2.Close()
	defer p2.Close()
	deadline := time.Now().Add(readyTimeout)
	for {
		alive := 0
		for _, pi := range p1.Peers() {
			if pi.State == pool.StateAlive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pool probe: two in-process nodes never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var callErr error
	p.us("campaign.pool.forward_rtt_us", func() {
		if _, err := p1.Execute(ctx, "n2", res.Hash, specJSON, "probe"); err != nil {
			callErr = err
		}
	})
	p.us("campaign.pool.lookup_rtt_us", func() {
		if _, ok, err := p1.Lookup(ctx, "n2", res.Hash); err != nil || !ok {
			callErr = fmt.Errorf("pool probe: lookup found=%v: %v", ok, err)
		}
	})
	return callErr
}

func probeHTTP(ctx context.Context, p probeSet, sh shape) error {
	svc, err := campaign.NewService(wiredConfig(0))
	if err != nil {
		return err
	}
	defer svc.Close()
	handler := campaign.NewServer(svc).Handler()
	body := sweepSpec{Name: "probe", Steps: shallowSteps, Seeds: [sweepSeeds]int64{1, 2, 3}}.body()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(method, path, rd).WithContext(ctx))
		return w
	}
	// post submits the sweep, returns how long the handler took, and then
	// (untimed) waits for the campaign so that the next POST meets an idle
	// service.
	post := func() (time.Duration, string, error) {
		t0 := time.Now()
		w := serve(http.MethodPost, "/v1/campaigns", body)
		d := time.Since(t0)
		var st campaign.CampaignStatus
		if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &st) != nil {
			return 0, "", fmt.Errorf("http probe: POST answered %d: %s", w.Code, w.Body)
		}
		deadline := time.Now().Add(campaignTimeout)
		for st.Status == "running" {
			if time.Now().After(deadline) {
				return 0, "", fmt.Errorf("http probe: campaign %s never finished", st.ID)
			}
			time.Sleep(50 * time.Microsecond)
			if err := json.Unmarshal(serve(http.MethodGet, "/v1/campaigns/"+st.ID, nil).Body.Bytes(), &st); err != nil {
				return 0, "", err
			}
		}
		if st.Status != "done" {
			return 0, "", fmt.Errorf("http probe: campaign %s: %s", st.ID, st.Error)
		}
		return d, st.ID, nil
	}
	if _, _, err := post(); err != nil { // primes the cache
		return err
	}
	// 21 events a campaign: 200 warm campaigns fill the 4096-event ring,
	// so the stream probe below replays a full one, as a busy server's does.
	const posts = 200
	took := make([]float64, posts)
	id := ""
	for i := range took {
		d, cid, err := post()
		if err != nil {
			return err
		}
		took[i], id = float64(d)/1000, cid
	}
	p["campaign.http.post_us"] = metric{median(took), "us", posts}

	var got *httptest.ResponseRecorder
	p.us("campaign.http.get_result_us", func() { got = serve(http.MethodGet, "/v1/campaigns/"+id, nil) })
	p["campaign.http.result_bytes"] = metric{float64(got.Body.Len()), "B", 1}
	p.us("campaign.http.sse_finished_us", func() { got = serve(http.MethodGet, "/v1/campaigns/"+id+"/events", nil) })
	if !strings.Contains(got.Body.String(), "event: summary") {
		return fmt.Errorf("http probe: finished campaign's stream has no summary: %.200s", got.Body)
	}
	return nil
}

// budgetLine is one row of the layer model of a campaign's server CPU: a
// probe and how many times a campaign pays it.
type budgetLine struct {
	probe string
	us    float64
	count float64
}

// budgetLines is the layer model, per campaign of the named workload.
// What it leaves out (the Go HTTP server and runtime, GC, the scheduler,
// lock waits, the pool's payload handling) is the unexplained remainder
// that budget.explained_share makes visible.
func budgetLines(workload string, p map[string]metric) []budgetLine {
	line := func(probe string, count float64) budgetLine {
		return budgetLine{probe, p[probe].Value, count}
	}
	// A miss is timed on a bare service; the wired_over_bare ratio scales
	// it to what cmd/ensembled's default wiring pays.
	miss := func(suffix string, jobs float64) budgetLine {
		l := line("campaign.service.submit_miss_us"+suffix, jobs)
		l.us *= p["campaign.service.wired_over_bare"+suffix].Value
		l.probe += " x wired_over_bare"
		return l
	}
	// Once per campaign: decode+expand+launch, the runner's own expansion,
	// the event stream and the result body; once per candidate: the report.
	lines := []budgetLine{
		line("campaign.http.post_us", 1),
		line("campaign.planner.expand_us", 1),
		line("campaign.http.sse_finished_us", 1),
		line("campaign.http.get_result_us", 1),
		line("indicators.report_us", sweepCandidates),
	}
	switch workload {
	case "shallow-cold":
		lines = append(lines, miss(".shallow", sweepJobs))
	case "deep-cold":
		lines = append(lines, miss(".deep", sweepJobs))
	case "warm":
		lines = append(lines, line("campaign.service.submit_hit_us", sweepJobs))
	case "pool3-mix":
		// Half the campaigns are fresh and half re-posts. A node owns a
		// third of the hashes, so two thirds of the jobs cross the fabric:
		// forwarded when fresh, looked up when re-posted.
		remote := float64(sweepJobs) * (poolNodes - 1) / poolNodes
		lines = append(lines,
			miss(".shallow", sweepJobs/2.0),
			line("campaign.pool.forward_rtt_us", remote/2),
			line("campaign.service.submit_hit_us", sweepJobs/2.0),
			line("campaign.pool.lookup_rtt_us", remote/2))
	}
	return lines
}

// budgetUs sums the layer model, in microseconds per campaign.
func budgetUs(workload string, p map[string]metric) float64 {
	total := 0.0
	for _, l := range budgetLines(workload, p) {
		total += l.us * l.count
	}
	return total
}
