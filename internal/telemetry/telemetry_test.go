package telemetry

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // counters never go down
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	c.SetTotal(10)
	c.SetTotal(4) // monotonic: lower totals are ignored
	if got := c.Value(); got != 10 {
		t.Errorf("counter after SetTotal = %v, want 10", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}

	// Re-registration returns the same cell, not a fresh one.
	if r.Counter("jobs_total", "jobs") != c {
		t.Error("re-registering a counter returned a different cell")
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "route", "code")
	v.With("/a", "200").Inc()
	v.With("/a", "200").Inc()
	v.With("/a", "500").Inc()
	if got := v.With("/a", "200").Value(); got != 2 {
		t.Errorf(`{"/a","200"} = %v, want 2`, got)
	}
	if got := v.With("/a", "500").Value(); got != 1 {
		t.Errorf(`{"/a","500"} = %v, want 1`, got)
	}

	defer func() {
		if recover() == nil {
			t.Error("label-arity mismatch should panic")
		}
	}()
	v.With("/a")
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "a")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil-registry counter should stay zero")
	}
	g := r.Gauge("b", "b")
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil-registry gauge should stay zero")
	}
	h := r.Histogram("c_seconds", "c", nil)
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil-registry histogram should stay empty")
	}
	r.CounterVec("d_total", "d", "l").With("v").Inc()
	r.GaugeVec("e", "e", "l").With("v").Set(1)
	r.HistogramVec("f_seconds", "f", nil, "l").With("v").Observe(1)
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil-registry write: %v", err)
	}
	if NewObsSink(nil) != nil {
		t.Error("NewObsSink(nil) should be nil")
	}
	var s *ObsSink
	s.Count("x", 1)
	s.QueueDepth("q", 1)
	s.Gauge("a", "b", 0, 1)
}

func TestHistogramBucketsMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1, 5})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.7, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	cum := h.snapshot()
	// snapshot returns per-bucket counts; cumulative form must be
	// non-decreasing and end at the total count (+Inf bucket).
	var running, prev uint64
	for i, c := range cum {
		running += c
		if running < prev {
			t.Fatalf("bucket %d not monotone: %v", i, cum)
		}
		prev = running
	}
	if running != 6 {
		t.Errorf("+Inf cumulative = %d, want count 6", running)
	}
	if got := h.Sum(); math.Abs(got-103.1) > 1e-9 {
		t.Errorf("sum = %v, want 103.1", got)
	}
}

// sampleRE matches one Prometheus sample line: name{labels} value.
var sampleRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "total jobs").Add(3)
	r.Gauge("depth", "queue depth").Set(2)
	r.CounterVec("reqs_total", "requests", "route").With(`/v1/"x"` + "\n").Inc()
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	var sawHelp, sawType int
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			sawHelp++
		case strings.HasPrefix(line, "# TYPE "):
			sawType++
		default:
			if !sampleRE.MatchString(line) {
				t.Fatalf("malformed sample line %q", line)
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparsable value in %q: %v", line, err)
			}
			samples[line[:i]] = v
		}
	}
	if sawHelp != 4 || sawType != 4 {
		t.Errorf("HELP/TYPE lines = %d/%d, want 4/4", sawHelp, sawType)
	}
	if samples["jobs_total"] != 3 || samples["depth"] != 2 {
		t.Errorf("scalar samples wrong: %v", samples)
	}
	// Label escaping: quote and newline must be escaped in place.
	if samples[`reqs_total{route="/v1/\"x\"\n"}`] != 1 {
		t.Errorf("escaped label sample missing: %v", samples)
	}
	// Histogram exposition: cumulative buckets, +Inf == count, sum.
	wantBuckets := map[string]float64{
		`lat_seconds_bucket{le="0.5"}`:  1,
		`lat_seconds_bucket{le="1"}`:    2,
		`lat_seconds_bucket{le="+Inf"}`: 3,
		"lat_seconds_count":             3,
	}
	for k, want := range wantBuckets {
		if samples[k] != want {
			t.Errorf("%s = %v, want %v", k, samples[k], want)
		}
	}
	if math.Abs(samples["lat_seconds_sum"]-3.9) > 1e-9 {
		t.Errorf("lat_seconds_sum = %v, want 3.9", samples["lat_seconds_sum"])
	}

	// Exposition is deterministic: a second quiet scrape is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("two quiet scrapes differ")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n")
	h := r.Histogram("h_seconds", "h", nil)
	v := r.CounterVec("v_total", "v", "i")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lbl := strconv.Itoa(g % 2)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-4)
				v.With(lbl).Inc()
				if i%100 == 0 {
					_ = r.WritePrometheus(&bytes.Buffer{})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if v.With("0").Value()+v.With("1").Value() != 8000 {
		t.Error("vec counters lost increments")
	}
}

func TestObsSinkBridgesIntoRegistry(t *testing.T) {
	r := NewRegistry()
	s := NewObsSink(r)
	s.Count("campaign.cache.hits", 3)
	s.Count("campaign.cache.hits", 7)
	s.Count("campaign.cache.hits", 5) // regressions ignored: counters stay monotonic
	s.QueueDepth("campaign.queue", 4)
	s.Gauge("node0", "membw", 0, 0.75)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`obs_counter_total{counter="campaign.cache.hits"} 7`,
		`obs_queue_depth{queue="campaign.queue"} 4`,
		`obs_gauge{subject="node0",name="membw"} 0.75`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
