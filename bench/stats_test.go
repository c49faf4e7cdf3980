//go:build linux

package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var ok []time.Duration
	for i := 10; i >= 1; i-- { // unsorted on purpose
		ok = append(ok, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5 * time.Millisecond}, {0.9, 9 * time.Millisecond}, {0.99, 10 * time.Millisecond}, {0, time.Millisecond}} {
		if got := percentile(ok, 0, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", 100*c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// A failed campaign misses any latency limit: it sorts after every
// success, so failures reach p90 first and p50 once they are half.
func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	ok := make([]time.Duration, 8)
	for i := range ok {
		ok[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(ok, 2, 0.8); got != 8*time.Millisecond {
		t.Errorf("p80 with 2 of 10 failed = %v, want the slowest success", got)
	}
	if got := percentile(ok, 2, 0.9); got != failedLatency {
		t.Errorf("p90 with 2 of 10 failed = %v, want %v", got, failedLatency)
	}
	if got := percentile(ok[:4], 6, 0.5); got != failedLatency {
		t.Errorf("p50 with 6 of 10 failed = %v, want %v", got, failedLatency)
	}
	if got := percentile(nil, 3, 0.5); got != failedLatency {
		t.Errorf("p50 with everything failed = %v, want %v", got, failedLatency)
	}
}

// Values checked against Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles of 1,2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

const exposition = `# HELP campaign_execute_seconds Wall time from worker pickup to job completion.
# TYPE campaign_execute_seconds histogram
campaign_execute_seconds_bucket{le="0.001"} 7
campaign_execute_seconds_bucket{le="+Inf"} 12
campaign_execute_seconds_sum 0.25
campaign_execute_seconds_count 12
campaign_cache_hits_total 40
campaign_cache_hits_total_extra 1000
pool_forwards_total{node="n1"} 3
pool_forwards_total{node="n2"} 4
campaign_jobs_finished_total{node="n2",status="done"} 9
campaign_jobs_finished_total{node="n2",status="failed"} 1
`

func TestPromSum(t *testing.T) {
	for _, c := range []struct {
		family string
		labels []string
		want   float64
	}{
		{"campaign_execute_seconds_sum", nil, 0.25},
		{"campaign_execute_seconds_count", nil, 12},
		{"campaign_cache_hits_total", nil, 40}, // not the longer family sharing its prefix
		{"pool_forwards_total", nil, 7},        // summed over label sets
		{"pool_forwards_total", []string{`node="n2"`}, 4},
		{"campaign_jobs_finished_total", []string{`status="done"`, `node="n2"`}, 9},
		{"campaign_execute_seconds", nil, 0}, // only the _sum/_count/_bucket series exist
		{"no_such_family", nil, 0},
	} {
		if got := promSum(exposition, c.family, c.labels...); got != c.want {
			t.Errorf("promSum(%s %v) = %v, want %v", c.family, c.labels, got, c.want)
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (ensem (bled) x) S 1 4242 4242 0 -1 4194560 2114 0 0 0 731 209 0 0 20 0 9 0 8612 1300000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 731+209 {
		t.Fatalf("parseProcStatCPU = %d, %v; want %d", got, err, 731+209)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseKBFieldAndHeapAlloc(t *testing.T) {
	status := "Name:\tensembled\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n"
	if v, err := parseKBField(status, "VmHWM"); err != nil || v != 2048<<10 {
		t.Errorf("VmHWM = %d, %v", v, err)
	}
	if _, err := parseKBField(status, "MemTotal"); err == nil {
		t.Error("missing field accepted")
	}
	heap := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 123456\n# HeapAlloc = 123456\n# HeapSys = 999\n"
	if v, err := parseHeapAlloc(heap); err != nil || v != 123456 {
		t.Errorf("HeapAlloc = %d, %v", v, err)
	}
	if _, err := parseHeapAlloc("no stats here"); err == nil {
		t.Error("profile without HeapAlloc accepted")
	}
}
