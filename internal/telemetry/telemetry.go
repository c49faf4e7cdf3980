// Package telemetry is the service-tier metrics and logging layer of the
// reproduction: a dependency-free (stdlib-only) metrics registry with
// Prometheus text-format exposition, and a leveled structured JSON
// logger.
//
// Where internal/obs records the *simulated* world on the virtual clock,
// telemetry records the *serving* world on the wall clock: queue depths,
// worker busy-time, cache hit rates, request latencies. A library caller
// can bridge an obs.Recorder's counters into the registry via an obs.Sink
// (see NewObsSink); cmd/ensembled does not.
//
// Like obs, the package is nil-safe by design: every method on a nil
// *Registry, nil metric handle, or nil *Logger returns immediately, so
// instrumented code threads handles unconditionally and an uninstrumented
// caller pays one nil check per site. All metric operations are lock-free
// atomics and safe for concurrent use.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricType classifies a family for exposition.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families keyed by name. A nil *Registry is a
// valid no-op registry: every constructor returns a nil handle whose
// methods do nothing, so "telemetry off" costs one branch per operation.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric: a fixed type, fixed label names, and one
// cell per label-value combination (a single unlabeled cell when the
// family has no labels).
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram bucket upper bounds (finite, ascending)

	mu    sync.Mutex
	cells map[string]any // label-value key -> *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first registration.
// Re-registering a name with a different type or label arity panics:
// that is a programming error, not an operational condition.
func (r *Registry) lookup(name, help string, typ metricType, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		cells:  make(map[string]any),
	}
	r.families[name] = f
	return f
}

// cell returns the family's cell for the label values, creating it on
// first use. The value count must match the family's label names —
// anything else would corrupt the exposition, so it panics like a type
// mismatch does.
func (f *family) cell(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.cells[key]; ok {
		return c
	}
	var c any
	switch f.typ {
	case typeCounter:
		c = &Counter{}
	case typeGauge:
		c = &Gauge{}
	case typeHistogram:
		c = newHistogram(f.bounds)
	}
	f.cells[key] = c
	return c
}

// labelKey joins label values with an unprintable separator so distinct
// tuples never collide.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

// sortedFamilies snapshots the families in name order for exposition.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, k int) bool { return fams[i].name < fams[k].name })
	return fams
}

// Counter is a monotonically increasing value.
type Counter struct{ bits atomic.Uint64 }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, nil).cell(nil).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative deltas are ignored: counters
// are monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// SetTotal raises the counter to total if total is ahead of the current
// value; regressions are ignored so bridged cumulative sources (obs
// CounterSet events, which re-emit running totals) keep the counter
// monotonic.
func (c *Counter) SetTotal(total float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) >= total {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(total)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, nil).cell(nil).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the label values (one per label name).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.cell(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.cell(values).(*Gauge)
}

// HistogramVec is a labeled histogram family; every cell shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a histogram family. A nil or empty
// buckets slice uses DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labels, normalizeBuckets(buckets))}
}

// With returns the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.cell(values).(*Histogram)
}
