package ensemblekit

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the figure's full computation per iteration at a
// reduced-but-steady scale (8 in situ steps, 1 trial) and reports the
// figure's headline quantity as a custom metric; cmd/experiments runs the
// full paper scale (37 steps, 5 trials) and prints the tables recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/experiments"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/network"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
	"ensemblekit/internal/sim"
	"ensemblekit/internal/telemetry/tracing"
)

func benchConfig() experiments.Config { return experiments.Quick() }

func BenchmarkTable1Metrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Configs(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	for i := 0; i < b.N; i++ {
		for _, p := range placement.ConfigsTable2() {
			if err := p.Validate(spec); err != nil {
				b.Fatal(err)
			}
			for _, m := range p.Members {
				if _, err := indicators.CP(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable4Configs(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	for i := 0; i < b.N; i++ {
		for _, p := range placement.ConfigsTable4() {
			if err := p.Validate(spec); err != nil {
				b.Fatal(err)
			}
			for _, m := range p.Members {
				if _, err := indicators.CP(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkFig3ComponentMetrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].LLCMissRatio, "C1.5-ana-missratio")
		}
	}
}

func BenchmarkFig4MemberMakespan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].Makespan, "C1.5-member-makespan-s")
		}
	}
}

func BenchmarkFig5EnsembleMakespan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].Makespan, "C1.5-makespan-s")
		}
	}
}

func BenchmarkFig6Timeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7CoreSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best, err := RecommendCores(points)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(best.Cores), "recommended-cores")
		}
	}
}

func BenchmarkFig8IndicatorStages(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Config == "C1.5" && r.Stage == "U,A,P" {
					b.ReportMetric(r.F, "F-C1.5-UAP")
				}
			}
		}
	}
}

func BenchmarkFig9IndicatorStages(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Config == "C2.8" && r.Stage == "U,A,P" {
					b.ReportMetric(r.F, "F-C2.8-UAP")
				}
			}
		}
	}
}

func BenchmarkHeadlineCoLocationGain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Ratio, "best/worst-F")
		}
	}
}

// --- ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationDTLTiers compares the three staging tiers on the
// co-located configuration.
func BenchmarkAblationDTLTiers(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	cfg := ConfigCc()
	es := SpecForPlacement(cfg, 8)
	for _, tier := range []string{runtime.TierDimes, runtime.TierBurstBuffer, runtime.TierPFS} {
		b.Run(tier, func(b *testing.B) {
			b.ReportAllocs()
			var makespan float64
			for i := 0; i < b.N; i++ {
				tr, err := RunSimulated(spec, cfg, es, SimOptions{Tier: tier})
				if err != nil {
					b.Fatal(err)
				}
				makespan = tr.Makespan()
			}
			b.ReportMetric(makespan, "makespan-s")
		})
	}
}

// BenchmarkAblationInterference quantifies what the interference model
// contributes: C1.4 with and without co-location degradation.
func BenchmarkAblationInterference(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	cfg := placement.C14()
	es := SpecForPlacement(cfg, 8)
	off := cluster.NewModel(spec)
	off.Inter = &cluster.Interference{
		Dilation: map[cluster.Class]map[cluster.Class]float64{
			cluster.ClassCompute: {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
			cluster.ClassMemory:  {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
		},
		MissInflation: map[cluster.Class]map[cluster.Class]float64{
			cluster.ClassCompute: {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
			cluster.ClassMemory:  {cluster.ClassCompute: 0, cluster.ClassMemory: 0},
		},
	}
	cases := []struct {
		name string
		opts SimOptions
	}{
		{"interference-on", SimOptions{}},
		{"interference-off", SimOptions{Model: off}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var makespan float64
			for i := 0; i < b.N; i++ {
				tr, err := RunSimulated(spec, cfg, es, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				makespan = tr.Makespan()
			}
			b.ReportMetric(makespan, "C1.4-makespan-s")
		})
	}
}

// BenchmarkAblationScheduler compares exhaustive search with the greedy
// heuristic on the paper instance.
func BenchmarkAblationScheduler(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	es := PaperEnsemble("bench", 2, 1, 6)
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scheduler.Exhaustive(spec, es, 3, obj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scheduler.GreedyLocalSearch(spec, es, 3, obj); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDESEngine measures raw event throughput of the simulation
// engine.
func BenchmarkDESEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		for p := 0; p < 10; p++ {
			env.Go("p", func(pr *sim.Proc) error {
				for k := 0; k < 1000; k++ {
					if err := pr.Wait(1); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabric measures contended transfer scheduling.
func BenchmarkFabric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fab, err := network.NewFabric(env, network.Config{Nodes: 8, NICBandwidth: 8e9})
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 32; f++ {
			src, dst := f%8, (f+1)%8
			env.Go("xfer", func(p *sim.Proc) error {
				return fab.Transfer(p, src, dst, 1e9)
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionScaling runs the ensemble-size scaling study.
func BenchmarkExtensionScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScalingStudy(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionHeterogeneous runs the heterogeneous-ensemble study.
func BenchmarkExtensionHeterogeneous(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeterogeneousStudy(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAnnealing compares the third search strategy against
// greedy on a 4-member instance.
func BenchmarkAblationAnnealing(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(6)
	es := PaperEnsemble("anneal-bench", 4, 2, 6)
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scheduler.GreedyLocalSearch(spec, es, 6, obj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("anneal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scheduler.Anneal(spec, es, 6, obj, scheduler.AnnealOptions{Iterations: 1000, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead quantifies what asking for the event stream costs
// on the simulated backend: "disabled" runs with a nil recorder, which the
// timeline kernel serves; "recording" runs with a live event bus, which
// selects the engine. (The engine with a nil recorder — one branch per
// emission site — is BenchmarkKernel's engine legs in internal/runtime.)
func BenchmarkObsOverhead(b *testing.B) {
	b.ReportAllocs()
	spec := Cori(3)
	cfg := placement.C15()
	es := SpecForPlacement(cfg, 8)
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunSimulated(spec, cfg, es, SimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		b.ReportAllocs()
		var events int
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder(nil)
			if _, err := RunSimulated(spec, cfg, es, SimOptions{Recorder: rec}); err != nil {
				b.Fatal(err)
			}
			events = len(rec.Events())
		}
		b.ReportMetric(float64(events), "events/run")
	})
}

// BenchmarkLargeEnsembleDES measures the simulated backend at a scale far
// beyond the paper's experiments: 16 fully co-located members on 16
// nodes, 37 in situ steps.
func BenchmarkLargeEnsembleDES(b *testing.B) {
	b.ReportAllocs()
	const members = 16
	spec := Cori(members)
	p := Placement{Name: "large"}
	for i := 0; i < members; i++ {
		p.Members = append(p.Members, Member{
			Simulation: Component{Nodes: []int{i}, Cores: 16},
			Analyses:   []Component{{Nodes: []int{i}, Cores: 8}},
		})
	}
	es := SpecForPlacement(p, PaperSteps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := RunSimulated(spec, p, es, SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tr.Makespan(), "makespan-s")
		}
	}
}

// BenchmarkCampaignSweep measures the campaign service against the serial
// path on the Table 2 sweep (3 seeds per configuration): serial
// RunSimulated, a pooled cold-cache service, and a warm-cache re-run.
func BenchmarkCampaignSweep(b *testing.B) {
	b.ReportAllocs()
	sweep := Sweep{
		Placements: ConfigsTable2(),
		Seeds:      []int64{1, 2, 3},
		Steps:      8,
	}
	cands, err := sweep.Jobs()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				for _, js := range c.Specs {
					opts := js.Sim.Options()
					opts.Faults = js.Faults
					if _, err := RunSimulated(js.Cluster, js.Placement, js.Ensemble, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})

	// coldSweep is one timed cold-cache campaign per iteration.
	coldSweep := func(b *testing.B, sw Sweep, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc, err := NewService(ServiceConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := RunCampaign(context.Background(), svc, sw); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			svc.Close()
			b.StartTimer()
		}
	}
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("pooled-%dw-cold", workers), func(b *testing.B) { coldSweep(b, sweep, workers) })
	}

	b.Run("pooled-4w-warm", func(b *testing.B) {
		b.ReportAllocs()
		svc, err := NewService(ServiceConfig{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		if _, err := RunCampaign(context.Background(), svc, sweep); err != nil {
			b.Fatal(err) // prime the cache outside the timed region
		}
		b.ResetTimer()
		var last *CampaignResult
		for i := 0; i < b.N; i++ {
			res, err := RunCampaign(context.Background(), svc, sweep)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.StopTimer()
		b.ReportMetric(float64(last.CacheHits)/float64(last.Jobs)*100, "hit-%")
	})

	// The deep sweep stretches every job to 256 in situ steps so
	// execution, not service overhead, dominates the cold wall clock —
	// the regime long campaigns actually run in.
	deep := sweep
	deep.Steps = 256
	b.Run("pooled-4w-cold-deep", func(b *testing.B) { coldSweep(b, deep, 4) })
}

// BenchmarkTracingOverhead measures the span layer on a warm-cache sweep
// (pure service overhead — no simulation work): no tracer (every span
// call is the nil no-op) against a live tracer recording job spans into
// a bounded store. The delta is the per-job price of span allocation,
// attribute stamping, and store insertion on the service's hot path —
// the number DESIGN.md's "tracing is free when off" claim rests on.
func BenchmarkTracingOverhead(b *testing.B) {
	sweep := Sweep{
		Placements: ConfigsTable2(),
		Seeds:      []int64{1, 2, 3},
		Steps:      8,
	}
	run := func(b *testing.B, cfg ServiceConfig) {
		b.ReportAllocs()
		svc, err := NewService(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		if _, err := RunCampaign(context.Background(), svc, sweep); err != nil {
			b.Fatal(err) // prime the cache outside the timed region
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunCampaign(context.Background(), svc, sweep); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop", func(b *testing.B) {
		run(b, ServiceConfig{Workers: 4})
	})
	b.Run("traced", func(b *testing.B) {
		run(b, ServiceConfig{Workers: 4,
			Tracer: tracing.NewTracer(tracing.NewStore(256, 4096))})
	})
	// read: a traced miss plus the first read of its trace. The worker only
	// defers the job's DES spans (obs.DeferSpans); Store.Spans builds them,
	// so read-ns/op is what a reader of /v1/jobs/{id}/spans pays and no
	// unread job does.
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		tracer := tracing.NewTracer(tracing.NewStore(256, 4096))
		svc, err := NewService(ServiceConfig{Workers: 4, Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		p := ConfigC15()
		es := SpecForPlacement(p, 32)
		var read time.Duration
		spans := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec, err := NewJobSpec(Cori(3), p, es, SimOptions{Jitter: 0.02, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			ctx, root := tracer.StartSpan(context.Background(), "bench", "server")
			j, err := Submit(ctx, svc, spec, SubmitOptions{})
			if err == nil {
				_, err = j.Wait(ctx)
			}
			root.End()
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			spans += len(tracer.Store().Spans(root.Context().TraceID))
			read += time.Since(t0)
		}
		b.ReportMetric(float64(read.Nanoseconds())/float64(b.N), "read-ns/op")
		b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
	})
	// record-reused: an observed deep miss in steady state, as most jobs of
	// a deep campaign are — one trace for the run, so its span cap refuses
	// all but the first DES batches, and one worker, so every job records
	// into the event log the last one used. B/op is the job without its
	// event log: the log is recycled, and only an admitted batch copies it.
	b.Run("record-reused", func(b *testing.B) {
		b.ReportAllocs()
		tracer := tracing.NewTracer(tracing.NewStore(256, 4096))
		svc, err := NewService(ServiceConfig{Workers: 1, Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		p := ConfigC15()
		es := SpecForPlacement(p, 128)
		ctx, root := tracer.StartSpan(context.Background(), "bench", "server")
		defer root.End()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec, err := NewJobSpec(Cori(3), p, es, SimOptions{Jitter: 0.02, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			j, err := Submit(ctx, svc, spec, SubmitOptions{})
			if err == nil {
				_, err = j.Wait(ctx)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEventsSubscribe measures what opening a campaign's event stream
// costs on a full default-size ring (4096 events) holding 63 events of
// each campaign: full-ring copies the history and leaves the filtering to
// the reader, as every SSE stream did; scoped is the subscription the SSE
// handler makes, filtered inside the broadcaster.
func BenchmarkEventsSubscribe(b *testing.B) {
	const hist, mine = 4096, 63
	bc := campaign.NewBroadcaster(hist, 256)
	for i := 0; i < hist; i++ {
		bc.Publish(campaign.JobEvent{Campaign: fmt.Sprintf("c-%d", i/mine), Job: "j-1", Label: "C1.5", Status: "done"})
	}
	for _, leg := range []struct {
		name      string
		subscribe func() ([]campaign.JobEvent, <-chan *campaign.JobEvent, func())
		want      int
	}{
		{"full-ring", bc.Subscribe, hist},
		{"scoped", func() ([]campaign.JobEvent, <-chan *campaign.JobEvent, func()) {
			return bc.SubscribeCampaign("c-7", 0)
		}, mine},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay, _, cancel := leg.subscribe()
				cancel()
				if len(replay) != leg.want {
					b.Fatalf("replay has %d events, want %d", len(replay), leg.want)
				}
			}
		})
	}
}

var ledgerSink accounting.JobLedger

// BenchmarkAccountingFromTrace measures the job ledger: one pass over the
// trace, run for every settled job and every cache hit (the hit is
// credited the core-seconds it saved). One op is the Table 2 sweep's seven
// traces, at the depths of the repository benchmark's shallow and deep
// workloads.
func BenchmarkAccountingFromTrace(b *testing.B) {
	for _, c := range []struct {
		name   string
		steps  int
		jitter float64
	}{{"shallow", 8, 0}, {"deep", 128, 0.02}} {
		b.Run(c.name, func(b *testing.B) {
			var traces []*EnsembleTrace
			for _, p := range ConfigsTable2() {
				tr, err := RunSimulated(Cori(3), p, SpecForPlacement(p, c.steps), SimOptions{Jitter: c.jitter, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				traces = append(traces, tr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					ledgerSink = accounting.FromTrace(tr)
				}
			}
		})
	}
}

// BenchmarkRingRoute measures the fabric's per-job routing decision:
// one consistent-hash Owner lookup per submission. The ring is immutable
// and rebuilt only on membership change, so routing must stay a pure
// hash + binary search with zero allocations — this is on the submit
// path of every pooled job.
func BenchmarkRingRoute(b *testing.B) {
	for _, n := range []int{3, 16} {
		b.Run(fmt.Sprintf("%dnodes", n), func(b *testing.B) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("node-%d", i+1)
			}
			ring := pool.NewRing(ids, 0)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("%064x", uint64(i)*2654435761)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ring.Owner(keys[i%len(keys)]) == "" {
					b.Fatal("empty owner")
				}
			}
		})
	}
}

// benchPoolLocal is a canned Local for the forwarding benchmark: the
// peer protocol cost is what is being measured, not an execution.
type benchPoolLocal struct {
	cached map[string][]byte
	result []byte
}

func (l *benchPoolLocal) CachedResultJSON(hash string) ([]byte, bool) {
	res, ok := l.cached[hash]
	return res, ok
}

func (l *benchPoolLocal) ExecuteForwardedJSON(ctx context.Context, specJSON []byte, label string) ([]byte, error) {
	return l.result, nil
}

func (l *benchPoolLocal) SubmitJSON(specJSON []byte, label string, priority int) error {
	return nil
}

func (l *benchPoolLocal) NodeAccountingJSON() []byte { return []byte(`{}`) }

// BenchmarkPoolForward prices the fabric's two wire operations between
// a real two-node loopback pool: a forwarded execution round-trip
// (spec JSON out, result JSON back) and a fleet-cache lookup, hit and
// miss (a 404). Each rides one HTTP request on a kept-alive connection,
// so this is the floor an engine job owned by a peer pays over running
// locally — and about what a kernel-served run costs (BenchmarkKernel),
// which is why those never cross.
func BenchmarkPoolForward(b *testing.B) {
	newNode := func(id string, seeds []string, local pool.Local) (*pool.Pool, *httptest.Server) {
		var h atomic.Pointer[http.Handler]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hp := h.Load(); hp != nil {
				(*hp).ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		}))
		p, err := pool.New(pool.Config{
			SelfID:    id,
			Advertise: ts.URL,
			Join:      seeds,
			Heartbeat: 10 * time.Millisecond,
			Local:     local,
		})
		if err != nil {
			b.Fatal(err)
		}
		handler := p.Handler()
		h.Store(&handler)
		p.Start()
		return p, ts
	}
	res := []byte(`{"objective":1.25,"hash":"bench"}`)
	p1, ts1 := newNode("n1", nil, &benchPoolLocal{result: res})
	defer p1.Close()
	defer ts1.Close()
	p2, ts2 := newNode("n2", []string{ts1.URL}, &benchPoolLocal{cached: map[string][]byte{"h": res}, result: res})
	defer p2.Close()
	defer ts2.Close()
	deadline := time.Now().Add(10 * time.Second)
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
			b.Fatal("pool never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	spec := []byte(`{"bench":true}`)
	b.Run("execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p1.Execute(context.Background(), "n2", "h", spec, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := p1.Lookup(context.Background(), "n2", "h"); err != nil || !ok {
				b.Fatalf("lookup ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("cache-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := p1.Lookup(context.Background(), "n2", "miss"); err != nil || ok {
				b.Fatalf("lookup ok=%v err=%v", ok, err)
			}
		}
	})
}
