//go:build linux

package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// failedLatency is what a failed, refused or timed-out campaign counts
// as in the latency percentiles: it misses any limit, so enough failures
// drag p90 and then p50 to the timeout.
const failedLatency = campaignTimeout

// percentile returns the q-quantile (nearest rank) of the successful
// latencies plus failed samples at failedLatency.
func percentile(ok []time.Duration, failed int, q float64) time.Duration {
	n := len(ok) + failed
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ok...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		return failedLatency
	}
	return sorted[rank]
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance check of the benchmark uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// promSum sums every sample of one family in a Prometheus text
// exposition, over all label sets; labels must all appear in the sample's
// label block for it to count (`node="n1"`). A histogram's sum and count
// are the families name_sum and name_count.
func promSum(text, family string, labels ...string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
next:
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		block := ""
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.LastIndex(rest, "} ")
			if end < 0 {
				continue
			}
			block, rest = rest[1:end], rest[end+2:]
		case strings.HasPrefix(rest, " "):
			rest = rest[1:]
		default:
			continue // a longer family name sharing the prefix
		}
		for _, l := range labels {
			if !strings.Contains(block, l) {
				continue next
			}
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			total += v
		}
	}
	return total
}

// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat times. It is
// 100 on every Linux architecture Go supports; reading it needs cgo.
const clockTicksPerSec = 100

// parseProcStatCPU returns utime+stime, in clock ticks, from the content
// of /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want 13 or more", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseKBField returns the value in bytes of a "Key:   123 kB" line of
// /proc/<pid>/status or /proc/meminfo.
func parseKBField(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		f := strings.Fields(line[len(key)+1:])
		if len(f) == 0 {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no %s field", key)
}

// parseHeapAlloc returns HeapAlloc from the runtime.MemStats dump at the
// end of GET /debug/pprof/heap?debug=1.
func parseHeapAlloc(profile string) (int64, error) {
	const key = "# HeapAlloc = "
	i := strings.Index(profile, key)
	if i < 0 {
		return 0, fmt.Errorf("heap profile has no HeapAlloc line")
	}
	rest := profile[i+len(key):]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
}
