//go:build linux

package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the repository root repeats the workload and metric
// tables of this package; the driver reads the file, the benchmark its
// own tables, so they must say the same. The per-layer names are checked
// against what a traced run emits: the layer probes (run here on tiny
// batches), the span and counter rows, and the budget share.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}

	probeBatchTime = 50 * time.Microsecond
	emitted, err := runProbes(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spanMetrics(emitted, spanSummary{})
	counterMetrics(emitted, counters{}, counters{}, &window{elapsed: time.Second}, 1)
	emitted["budget.explained_share"] = metric{Unit: "share"}
	for _, wl := range workloads {
		if budgetUs(wl.name, emitted) <= 0 {
			t.Errorf("%s: the layer model sums to nothing", wl.name)
		}
	}

	var want, got []string
	for name := range emitted {
		want = append(want, name)
	}
	for _, m := range bj.PerLayer {
		got = append(got, m.Name)
		if e, ok := emitted[m.Name]; ok && e.Unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, e.Unit)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a traced run emits %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("per-layer metric %d: BENCHMARK.json has %q, a traced run emits %q", i, got[i], want[i])
		}
	}
}

func TestCompareDocuments(t *testing.T) {
	doc := func(cps, p50, failedShare float64) *document {
		d := &document{Workloads: map[string]*workloadDoc{}}
		for _, wl := range workloads {
			wd := &workloadDoc{FailedShare: failedShare, EndToEnd: map[string]summary{}}
			for _, def := range endToEnd {
				v := 1.0
				switch def.name {
				case "campaigns_per_s":
					v = cps
				case "submit_done_p50_ms":
					v = p50
				}
				wd.EndToEnd[def.name] = summarize(def, []float64{v})
			}
			d.Workloads[wl.name] = wd
		}
		return d
	}
	base := doc(100, 10, 0)
	bound := func(name string) float64 {
		for _, def := range endToEnd {
			if def.name == name {
				return def.bound
			}
		}
		t.Fatalf("no end-to-end metric %q", name)
		return 0
	}
	cpsBound, p50Bound := bound("campaigns_per_s"), bound("submit_done_p50_ms")
	for _, c := range []struct {
		name string
		b    *document
		ok   bool
	}{
		{"same", doc(100, 10, 0), true},
		{"just inside the bounds", doc(100*(1-cpsBound+0.01), 10*(1+p50Bound-0.01), 0), true},
		{"better", doc(200, 5, 0), true},
		{"throughput past its bound", doc(100*(1-cpsBound-0.01), 10, 0), false},
		{"p50 past its bound", doc(100, 10*(1+p50Bound+0.01), 0), false},
		{"any failure", doc(100, 10, 0.001), false},
	} {
		if got := compareDocuments(io.Discard, base, c.b); got != c.ok {
			t.Errorf("%s: compare = %v, want %v", c.name, got, c.ok)
		}
	}
}
