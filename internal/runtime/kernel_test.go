package runtime_test

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/core"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/kernels"
	"ensemblekit/internal/network"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
	"ensemblekit/internal/trace"
	"ensemblekit/internal/workload"
)

// The differential oracle of the timeline kernel: the engine plays "the
// real run", and the kernel must reproduce its trace bit for bit. The
// engine is selected the way a caller selects it — by attaching a recorder
// (a request for the event stream), which never changes the trace
// (TestSimulatedRecorderBitIdentical).

// diffCase is one generated configuration.
type diffCase struct {
	name string
	spec cluster.Spec
	p    placement.Placement
	es   runtime.EnsembleSpec
	opts runtime.SimOptions
}

func runTrace(t testing.TB, c diffCase, opts runtime.SimOptions, wantKernel bool) *trace.EnsembleTrace {
	t.Helper()
	tr, err := tryTrace(c, opts, wantKernel)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// tryTrace is runTrace for worker goroutines, which must not call
// t.Fatal: it returns what went wrong instead.
func tryTrace(c diffCase, opts runtime.SimOptions, wantKernel bool) (*trace.EnsembleTrace, error) {
	tr, info, err := runtime.RunSimulatedInfo(c.spec, c.p, c.es, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel=%v: %v", c.name, wantKernel, err)
	}
	if info.FastPath != wantKernel || (wantKernel && info.DESEvents != 0) {
		return nil, fmt.Errorf("%s: served by kernel=%v with %d engine events, want kernel=%v",
			c.name, info.FastPath, info.DESEvents, wantKernel)
	}
	return tr, nil
}

// kernelEqualsEngine runs c on both and compares the traces.
func kernelEqualsEngine(world *runtime.World, c diffCase) error {
	engine := c.opts
	engine.Recorder = obs.NewRecorder(nil)
	want, err := tryTrace(c, engine, false)
	if err != nil {
		return err
	}
	kernel := c.opts
	kernel.World = world
	got, err := tryTrace(c, kernel, true)
	if err != nil {
		return err
	}
	if d := traceDiff(got, want); d != "" {
		return fmt.Errorf("%s: kernel trace differs from engine trace at %s", c.name, d)
	}
	return nil
}

// eachCase runs check over the cases on GOMAXPROCS workers, one World
// each (a World is not shared across the service's workers either).
// Under the race detector it takes every fifth case. It fails t with the
// lowest-indexed case that failed; after a failure the workers stop at
// their next case. It returns the number of cases checked.
func eachCase(t *testing.T, cases []diffCase, check func(*runtime.World, diffCase) error) int {
	t.Helper()
	stride := 1
	if raceEnabled {
		stride = 5
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = len(cases)
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < goruntime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			world := runtime.NewWorld()
			for !failed.Load() {
				i := int(next.Add(int64(stride))) - stride
				if i >= len(cases) {
					return
				}
				if err := check(world, cases[i]); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return (len(cases) + stride - 1) / stride
}

// traceDiff names the first field where two traces differ, or returns ""
// when they agree field for field. Floats compare by bit pattern and
// slices by nil-ness and length, so it is at least as strict as comparing
// the traces' JSON encodings, at a fraction of the cost.
// TestTraceDiffCoversEveryField keeps it in step with the trace types.
func traceDiff(a, b *trace.EnsembleTrace) string {
	if a.Backend != b.Backend || a.Config != b.Config {
		return "header"
	}
	if !sameLen(a.Members, b.Members) {
		return "members"
	}
	for i, am := range a.Members {
		if d := memberDiff(am, b.Members[i]); d != "" {
			return fmt.Sprintf("members[%d].%s", i, d)
		}
	}
	return ""
}

func memberDiff(a, b *trace.MemberTrace) string {
	if (a == nil) != (b == nil) {
		return "nil"
	}
	if a == nil {
		return ""
	}
	if a.Index != b.Index {
		return "index"
	}
	if d := componentDiff(a.Simulation, b.Simulation); d != "" {
		return "simulation." + d
	}
	if !sameLen(a.Analyses, b.Analyses) {
		return "analyses"
	}
	for j := range a.Analyses {
		if d := componentDiff(a.Analyses[j], b.Analyses[j]); d != "" {
			return fmt.Sprintf("analyses[%d].%s", j, d)
		}
	}
	return ""
}

func componentDiff(a, b *trace.ComponentTrace) string {
	if (a == nil) != (b == nil) {
		return "nil"
	}
	if a == nil {
		return ""
	}
	switch {
	case a.Name != b.Name || a.Kind != b.Kind || a.Member != b.Member || a.Analysis != b.Analysis ||
		a.Cores != b.Cores || a.Err != b.Err || a.Restarts != b.Restarts || a.Dropped != b.Dropped:
		return "identity"
	case !sameLen(a.Nodes, b.Nodes) || !slices.Equal(a.Nodes, b.Nodes):
		return "nodes"
	case !sameFloat(a.Start, b.Start) || !sameFloat(a.End, b.End):
		return "span"
	case !sameLen(a.Steps, b.Steps):
		return "steps"
	}
	for k, as := range a.Steps {
		bs := b.Steps[k]
		if as.Index != bs.Index || !sameLen(as.Stages, bs.Stages) {
			return fmt.Sprintf("steps[%d]", k)
		}
		for n, ar := range as.Stages {
			if !sameStage(ar, bs.Stages[n]) {
				return fmt.Sprintf("steps[%d].stages[%d]", k, n)
			}
		}
	}
	return ""
}

func sameStage(a, b trace.StageRecord) bool {
	return a.Stage == b.Stage && a.Retries == b.Retries &&
		sameFloat(a.Start, b.Start) && sameFloat(a.Duration, b.Duration) &&
		sameFloat(a.Counters.Instructions, b.Counters.Instructions) &&
		sameFloat(a.Counters.Cycles, b.Counters.Cycles) &&
		sameFloat(a.Counters.LLCRefs, b.Counters.LLCRefs) &&
		sameFloat(a.Counters.LLCMisses, b.Counters.LLCMisses) &&
		a.Counters.Bytes == b.Counters.Bytes
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameLen[T any](a, b []T) bool { return (a == nil) == (b == nil) && len(a) == len(b) }

// TestTraceDiffCoversEveryField pins the field counts of the trace types
// traceDiff walks, so a new field cannot slip past the oracle, and checks
// that a one-ulp change to any float of one stage record is a difference.
func TestTraceDiffCoversEveryField(t *testing.T) {
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(trace.EnsembleTrace{}):  3,
		reflect.TypeOf(trace.MemberTrace{}):    3,
		reflect.TypeOf(trace.ComponentTrace{}): 12,
		reflect.TypeOf(trace.StepRecord{}):     2,
		reflect.TypeOf(trace.StageRecord{}):    5,
		reflect.TypeOf(trace.Counters{}):       5,
	} {
		if typ.NumField() != n {
			t.Errorf("%v has %d fields, traceDiff compares %d: extend it", typ, typ.NumField(), n)
		}
	}

	p := placement.C14()
	c := diffCase{name: "C1.4", spec: cluster.Cori(3), p: p, es: runtime.SpecForPlacement(p, 4),
		opts: runtime.SimOptions{Jitter: 0.1, Seed: 3}}
	want := runTrace(t, c, c.opts, true)
	got := runTrace(t, c, c.opts, true)
	if d := traceDiff(got, want); d != "" {
		t.Fatalf("two runs of one case differ at %s", d)
	}
	rec := &got.Members[1].Analyses[0].Steps[2].Stages[1]
	for name, f := range map[string]*float64{
		"start": &rec.Start, "duration": &rec.Duration,
		"instructions": &rec.Counters.Instructions, "cycles": &rec.Counters.Cycles,
		"llcRefs": &rec.Counters.LLCRefs, "llcMisses": &rec.Counters.LLCMisses,
	} {
		orig := *f
		*f = math.Nextafter(orig, math.Inf(1))
		if traceDiff(got, want) == "" {
			t.Errorf("a one-ulp change to the stage record's %s went unseen", name)
		}
		*f = orig
	}
}

var (
	diffSteps = []int{1, 2, 8, 37, 128}
	// diffStepsRotation deals the generated families their step counts:
	// mostly short (the cases are many), one in seven deep; its length is
	// coprime to the jitter, seed and fabric rotations.
	diffStepsRotation = []int{1, 2, 8, 37, 2, 8, 128}
	diffJitters       = []float64{0.02, 0.1, 0.5} // 0.5 exercises the clamp
	// diffFabrics: the default (per-flow cap binds), then NICs below the
	// 1.5 GB/s cap so the water-fill shares links, each with no, the
	// default, and a stage-sized latency.
	diffNICs      = []float64{8e9, 2e9, 2e8, 3e7}
	diffLatencies = []float64{0, 2e-6, 0.5}
)

func fabricVariant(spec cluster.Spec, v int) cluster.Spec {
	spec.NICBandwidth = diffNICs[v%len(diffNICs)]
	spec.NICLatency = diffLatencies[(v/len(diffNICs))%len(diffLatencies)]
	return spec
}

const fabricVariants = 12

// tableCases: every Table 2 and Table 4 configuration at every step count;
// unjittered (where symmetric members tie on every event) on all twelve
// fabrics, and each jitter on eight seeds with the fabrics dealt round
// robin.
func tableCases() []diffCase {
	var out []diffCase
	configs := append(placement.ConfigsTable2(), placement.ConfigsTable4()...)
	v := 0
	for _, p := range configs {
		for _, steps := range diffSteps {
			es := runtime.SpecForPlacement(p, steps)
			for f := 0; f < fabricVariants; f++ {
				out = append(out, diffCase{
					name: fmt.Sprintf("%s/steps%d/j0/fabric%d", p.Name, steps, f),
					spec: fabricVariant(cluster.Cori(3), f), p: p, es: es,
				})
			}
			for _, j := range diffJitters {
				for seed := int64(1); seed <= 8; seed++ {
					out = append(out, diffCase{
						name: fmt.Sprintf("%s/steps%d/j%v/seed%d/fabric%d", p.Name, steps, j, seed, v%fabricVariants),
						spec: fabricVariant(cluster.Cori(3), v), p: p, es: es,
						opts: runtime.SimOptions{Jitter: j, Seed: seed},
					})
					v++
				}
			}
		}
	}
	return out
}

// enumeratedCases: every placement the scheduler enumerates for two
// members with K = 1, 2, 3 analyses on three nodes, under four ensembles:
// two whose members differ in stride, analysis cost and chunk size (one
// with a member staging empty chunks), on rotating steps, jitters, seeds
// and fabrics; and two of identical members — the paper's, and one with
// analyses slow enough that the simulations idle — unjittered, so that
// every event of one member ties with the other's and up to six equal
// flows share a link.
func enumeratedCases(t testing.TB) []diffCase {
	var out []diffCase
	v := 0
	for k := 1; k <= 3; k++ {
		for variant := 0; variant < 4; variant++ {
			es := workload.Random(workload.GenOptions{
				Members: 2, MinAnalyses: k, MaxAnalyses: k,
				StrideMin: 400, StrideMax: 1600, AnalysisScaleMin: 0.5, AnalysisScaleMax: 3,
				Seed: int64(10*k + variant),
			})
			es.Members[0].Sim.BytesPerStep /= 3
			switch variant {
			case 1:
				es.Members[1].Sim.BytesPerStep = 0
			case 2, 3:
				es = runtime.PaperEnsemble(es.Name, 2, k, 0)
				for i := range es.Members {
					for j := range es.Members[i].Analyses {
						es.Members[i].Analyses[j] = kernels.ScaledAnalysisProfile(float64(2*variant - 3))
					}
				}
			}
			var placements []placement.Placement
			collect := func(p placement.Placement) (float64, error) {
				placements = append(placements, p)
				return 0, nil
			}
			if _, err := scheduler.Exhaustive(cluster.Cori(3), es, 3, collect); err != nil {
				t.Fatal(err)
			}
			for pi, p := range placements {
				p.Name = fmt.Sprintf("K%d.v%d.P%d", k, variant, pi)
				for r := 0; r < 2; r++ {
					c := diffCase{spec: fabricVariant(cluster.Cori(3), v), p: p, es: es}
					c.es.Steps = diffStepsRotation[v%len(diffStepsRotation)]
					if j := v % 4; variant < 2 && j > 0 {
						c.opts = runtime.SimOptions{Jitter: diffJitters[j-1], Seed: int64(v%8 + 1)}
					}
					c.name = fmt.Sprintf("%s/steps%d/j%v/seed%d/fabric%d", p.Name, c.es.Steps, c.opts.Jitter, c.opts.Seed, v%fabricVariants)
					out = append(out, c)
					v++
				}
			}
		}
	}
	return out
}

// randomCases: larger random ensembles (3–5 members, K up to 3) on random
// placements over six nodes.
func randomCases(t testing.TB) []diffCase {
	var out []diffCase
	for i := 0; i < 400; i++ {
		es := workload.Random(workload.GenOptions{
			Members: 3 + i%3, MinAnalyses: 1, MaxAnalyses: 3,
			StrideMin: 400, StrideMax: 1600, AnalysisScaleMin: 0.5, AnalysisScaleMax: 3,
			Steps: diffStepsRotation[i%len(diffStepsRotation)], Seed: int64(1000 + i),
		})
		spec := fabricVariant(cluster.Cori(6), i)
		p, err := workload.RandomPlacement(spec, es, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		c := diffCase{name: fmt.Sprintf("random%d", i), spec: spec, p: p, es: es}
		if i%4 > 0 {
			c.opts = runtime.SimOptions{Jitter: diffJitters[i%4-1], Seed: int64(i%8 + 1)}
		}
		out = append(out, c)
	}
	return out
}

// TestKernelEqualsEngine is the differential suite. Under the race
// detector it runs every fifth case (the kernel is single-threaded; what
// the detector can see is the World's arenas, which any subset exercises).
func TestKernelEqualsEngine(t *testing.T) {
	cases := append(append(tableCases(), enumeratedCases(t)...), randomCases(t)...)
	if len(cases) < 5000 {
		t.Fatalf("only %d generated cases", len(cases))
	}
	n := eachCase(t, cases, kernelEqualsEngine)
	t.Logf("%d of %d cases run, bit-identical, none declined", n, len(cases))
}

// TestSummaryEqualsTrace is the summary sink's oracle over the
// differential suite's cases: every member's steady state, the makespan
// and the ledger's core-seconds it yields equal bit for bit what the
// trace sink's trace of the same run yields to the functions a job result
// is derived from (core.FromMemberTrace, Makespan, accounting.FromTrace).
// Under the race detector it runs every fifth case.
func TestSummaryEqualsTrace(t *testing.T) {
	cases := append(append(tableCases(), enumeratedCases(t)...), randomCases(t)...)
	eachCase(t, cases, func(world *runtime.World, c diffCase) error {
		opts := c.opts
		opts.World = world
		tr, err := tryTrace(c, opts, true)
		if err != nil {
			return err
		}
		sum, engine, info, err := runtime.RunSimulatedSummary(c.spec, c.p, c.es, opts)
		if err != nil || sum == nil || engine != nil || !info.FastPath {
			return fmt.Errorf("%s: summary %v, engine trace %v, err %v", c.name, sum != nil, engine != nil, err)
		}
		if d := summaryDiff(sum, tr); d != "" {
			return fmt.Errorf("%s: summary differs from its trace at %s", c.name, d)
		}
		return nil
	})
}

// summaryDiff names the first value where a summary and what the trace
// yields differ, comparing floats by bit pattern, or returns "".
func summaryDiff(sum *runtime.Summary, tr *trace.EnsembleTrace) string {
	if len(sum.States) != len(tr.Members) {
		return "members"
	}
	for i, m := range tr.Members {
		want, err := core.FromMemberTrace(m, core.ExtractOptions{})
		if err != nil {
			return fmt.Sprintf("members[%d]: %v", i, err)
		}
		got := sum.States[i]
		if !sameFloat(got.S, want.S) || !sameFloat(got.W, want.W) || len(got.Couplings) != len(want.Couplings) {
			return fmt.Sprintf("states[%d]", i)
		}
		for j, c := range want.Couplings {
			if !sameFloat(got.Couplings[j].R, c.R) || !sameFloat(got.Couplings[j].A, c.A) {
				return fmt.Sprintf("states[%d].couplings[%d]", i, j)
			}
		}
	}
	if !sameFloat(sum.Makespan, tr.Makespan()) {
		return "makespan"
	}
	got, want := accounting.FromStageCoreSeconds(sum.CoreSeconds).Splits(), accounting.FromTrace(tr).Splits()
	for k := range want {
		if !sameFloat(got[k].Busy, want[k].Busy) || !sameFloat(got[k].Idle, want[k].Idle) {
			return "ledger." + accounting.Classes()[k]
		}
	}
	return ""
}

// TestKernelDeclines: one case per static precondition. The engine serves
// each, and its trace is the one it produces with the event stream on.
func TestKernelDeclines(t *testing.T) {
	p := placement.C14()
	base := diffCase{spec: cluster.Cori(3), p: p, es: runtime.SpecForPlacement(p, 8)}
	for name, opts := range map[string]runtime.SimOptions{
		"faults": {Faults: &faults.Plan{Name: "degraded", Seed: 7, Network: []faults.NetworkWindow{
			{Start: 2, End: 30, Factor: 0.25}}}},
		"topology":      {Topology: &network.Dragonfly{GroupSize: 1, GlobalBandwidth: 1e9, GlobalLatency: 5e-3}},
		"stage timeout": {Resilience: runtime.Resilience{StageTimeout: 1e6}},
		"slots > 1":     {StagingSlots: 2},
		"burst buffer":  {Tier: runtime.TierBurstBuffer},
		"pfs":           {Tier: runtime.TierPFS},
	} {
		if !opts.NeedsEngine() {
			t.Errorf("%s: NeedsEngine() = false", name)
		}
		c := base
		c.name, c.opts = name, opts
		recorded := opts
		recorded.Recorder = obs.NewRecorder(nil)
		if traceDiff(runTrace(t, c, opts, false), runTrace(t, c, recorded, false)) != "" {
			t.Errorf("%s: engine trace changes with the recorder", name)
		}
	}
	// A recorder is a request for the engine's event stream, not a property
	// of the run.
	recorded := runtime.SimOptions{Recorder: obs.NewRecorder(nil)}
	if recorded.NeedsEngine() || (runtime.SimOptions{}).NeedsEngine() {
		t.Error("plain options need the engine")
	}
	base.name = "recorder attached"
	if traceDiff(runTrace(t, base, recorded, false), runTrace(t, base, runtime.SimOptions{}, true)) != "" {
		t.Error("recorder attached: engine trace differs from kernel trace")
	}
	if n := len(recorded.Recorder.Events()); n == 0 {
		t.Error("recorder attached: no events recorded")
	}
}
