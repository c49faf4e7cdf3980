package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency buckets, in seconds: half a
// millisecond to one minute on a roughly ×2.5 ladder — the same shape the
// Prometheus client library ships, extended upward because campaign jobs
// routinely run for tens of seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// normalizeBuckets validates and sorts bucket bounds, substituting
// DefBuckets for an empty slice and dropping a trailing +Inf (the
// implicit overflow bucket provides it).
func normalizeBuckets(bounds []float64) []float64 {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, +1) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	return out
}

// Histogram is a fixed-bucket latency histogram: per-bucket atomic
// counts, a running sum, and quantile estimation by linear interpolation
// within the owning bucket. Observations and reads are lock-free; a read
// concurrent with writes sees a slightly torn but monotonically
// consistent snapshot, which is all a scrape needs.
type Histogram struct {
	bounds []float64       // finite upper bounds, ascending
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Histogram registers (or finds) an unlabeled histogram. A nil or empty
// buckets slice uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeHistogram, nil, normalizeBuckets(buckets)).cell(nil).(*Histogram)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; most latency observations
	// land in low buckets, but the ladder is short either way.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
