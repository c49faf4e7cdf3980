package runtime

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/trace"
)

// TestSeedMemoStreamEquality: a stream the World's memo serves draws
// exactly what a freshly seeded rand.Rand draws, both when its seed is
// first used (seeded, then remembered) and when the memo copies it into a
// generator that has already drawn from another seed. The pairs cover
// negative seeds, zero, values at and past 2³¹ and the int64 extremes,
// and far more seed values than the memo holds, so slots are reused.
func TestSeedMemoStreamEquality(t *testing.T) {
	const draws = 300
	seeds := []int64{0, 1, -1, 2, -2, math.MaxInt32, math.MaxInt32 + 1, -math.MaxInt32 - 1,
		1 << 31, 1<<31 + 7919, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, math.MaxInt64 / 7919}
	r := rand.New(rand.NewSource(1))
	for len(seeds) < 2000 {
		seeds = append(seeds, r.Int63()-r.Int63(), int64(r.Int31())-1<<30)
	}
	indexes := []int64{0, 1, 2, 131, 132, 133, 262}
	w := NewWorld()
	seen := make(map[int64]bool)
	pairs := 0
	var recycled jitter
	for _, seed := range seeds {
		for _, index := range indexes[:1+pairs%len(indexes)] {
			opts := SimOptions{Jitter: 0.02, Seed: seed, World: w}
			value := seed*7919 + index
			if seen[value] {
				continue
			}
			seen[value] = true
			pairs++
			before := w.Stats()
			first := opts.jitter(index, jitter{})
			recycled = opts.jitter(index, recycled)
			after := w.Stats()
			if after.SeedMisses != before.SeedMisses+1 || after.SeedHits != before.SeedHits+1 {
				t.Fatalf("seed %d index %d: %+v then %+v, want one miss then one hit", seed, index, before, after)
			}
			want := rand.New(rand.NewSource(value))
			for d := 0; d < draws; d++ {
				x := want.NormFloat64()
				if a, b := first.rng.NormFloat64(), recycled.rng.NormFloat64(); a != x || b != x {
					t.Fatalf("seed %d index %d draw %d: first use %v, hit %v, fresh %v", seed, index, d, a, b, x)
				}
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("only %d (seed, index) pairs", pairs)
	}
}

// TestSeedMemoTable2Sweep: one serial Table 2 jittered sweep (seven
// placements × three seeds, 72 component streams) over a fresh World
// seeds only its 12 distinct stream seeds; the other 60 streams are
// copies. The engine, when a run needs it, uses the same memo.
func TestSeedMemoTable2Sweep(t *testing.T) {
	w := NewWorld()
	streams := 0
	for _, p := range placement.ConfigsTable2() {
		for seed := int64(1); seed <= 3; seed++ {
			sum, _, info, err := RunSimulatedSummary(cluster.Cori(3), p, SpecForPlacement(p, 8),
				SimOptions{Jitter: 0.02, Seed: seed, World: w})
			if err != nil || sum == nil || !info.FastPath {
				t.Fatalf("%s seed %d: summary %v, err %v", p.Name, seed, sum != nil, err)
			}
			for _, m := range p.Members {
				streams += 1 + len(m.Analyses)
			}
		}
	}
	if st := w.Stats(); streams != 72 || st.SeedMisses != 12 || st.SeedHits != 60 {
		t.Fatalf("%d streams: %d seeded, %d copied; want 72: 12 seeded, 60 copied", streams, st.SeedMisses, st.SeedHits)
	}

	p := placement.C14()
	opts := SimOptions{Jitter: 0.02, Seed: 1, World: w, StagingSlots: 2}
	if _, err := RunSimulated(cluster.Cori(3), p, SpecForPlacement(p, 8), opts); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.SeedMisses != 12 || st.SeedHits != 64 {
		t.Fatalf("engine run of a swept seed: %d seeded, %d copied; want 12, 64", st.SeedMisses, st.SeedHits)
	}
}

// TestSeedMemoConcurrentJobs: jobs running at once through one World, on
// overlapping seeds, through both sinks and the engine, produce what the
// same jobs produce without a World. Under the race detector this is the
// memo's concurrency check.
func TestSeedMemoConcurrentJobs(t *testing.T) {
	spec, p := cluster.Cori(3), placement.C14()
	es := SpecForPlacement(p, 8)
	// run returns a job's summary, or its trace's JSON when no summary.
	run := func(opts SimOptions) (*Summary, string) {
		sum, tr, _, err := RunSimulatedSummary(spec, p, es, opts)
		if err != nil {
			t.Error(err)
			return nil, ""
		}
		b, _ := json.Marshal(tr)
		return sum, string(b)
	}
	w := NewWorld()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// Every third job buffers two chunks: the engine serves it.
				opts := SimOptions{Jitter: 0.05, Seed: int64((g + i) % 5), StagingSlots: 1 + (g+i)%3/2}
				wantSum, wantTrace := run(opts)
				opts.World = w
				if sum, tr := run(opts); !reflect.DeepEqual(sum, wantSum) || tr != wantTrace {
					t.Errorf("goroutine %d job %d: the World changed the result", g, i)
				}
			}
		}()
	}
	wg.Wait()
	if st := w.Stats(); st.SeedHits == 0 {
		t.Errorf("no stream was served from the memo (%d seeded)", st.SeedMisses)
	}
}

// TestStageCheckIsTraceValidate: the summary sink's per-stage check
// rejects exactly the components trace.Validate rejects, over hand
// corruptions of every stage of a real trace: a negative duration, a
// duration that overruns the next stage's start, a start before the
// previous end, an invalid stage, and an end before the last stage's.
func TestStageCheckIsTraceValidate(t *testing.T) {
	p := placement.C14()
	tr, err := RunSimulated(cluster.Cori(3), p, SpecForPlacement(p, 3), SimOptions{Jitter: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *trace.ComponentTrace) bool {
		s := stageCheck{prevEnd: c.Start}
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				s.stage(st.Stage, st.Start, st.Duration)
			}
		}
		return s.close(c.End)
	}
	verdicts := func(c *trace.ComponentTrace) (bool, bool) {
		one := &trace.EnsembleTrace{Members: []*trace.MemberTrace{{Simulation: c}}}
		return one.Validate() == nil, check(c)
	}
	rejected := 0
	for _, c := range tr.Components() {
		if valid, ok := verdicts(c); !valid || !ok {
			t.Fatalf("%s: clean component: Validate %v, check %v", c.Name, valid, ok)
		}
		for si := range c.Steps {
			for k := range c.Steps[si].Stages {
				st := &c.Steps[si].Stages[k]
				orig := *st
				for name, corrupt := range map[string]func(){
					"negative duration": func() { st.Duration = -1e-12 },
					"overrun":           func() { st.Duration += 1 },
					"overrun in slack":  func() { st.Duration += 5e-10 },
					"early start":       func() { st.Start -= 1e-6 },
					"invalid stage":     func() { st.Stage = trace.NumStages },
				} {
					corrupt()
					valid, ok := verdicts(c)
					if valid != ok {
						t.Errorf("%s step %d stage %d %s: Validate %v, check %v", c.Name, si, k, name, valid, ok)
					}
					if !valid {
						rejected++
					}
					*st = orig
				}
			}
		}
		end := c.End
		for _, d := range []float64{-1e-6, -5e-10, 1} {
			c.End = end + d
			if valid, ok := verdicts(c); valid != ok {
				t.Errorf("%s end moved by %v: Validate %v, check %v", c.Name, d, valid, ok)
			}
		}
		c.End = end
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}
}

// TestSummarySinkDeclinesACorruptDuration: a plan whose compute time is
// corrupted negative makes the kernel record a negative duration; the
// summary sink declines the run exactly as the trace sink's
// trace.Validate does, so the engine would serve it.
func TestSummarySinkDeclinesACorruptDuration(t *testing.T) {
	p := placement.C14()
	pl, err := buildPlan(cluster.Cori(3), p, SpecForPlacement(p, 4), TierDimes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Jitter: 0.02, Seed: 1}
	if _, ok := summarizeKernel(pl, opts); !ok {
		t.Fatal("the clean plan was declined")
	}
	pl.anas[1][0].assess.ComputeTime = -1e-3
	if _, ok := runKernel(pl, opts); ok {
		t.Fatal("the trace sink accepted a negative duration")
	}
	if _, ok := summarizeKernel(pl, opts); ok {
		t.Fatal("the summary sink accepted a negative duration")
	}
}
