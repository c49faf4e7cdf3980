package tracing

import (
	"fmt"
	"sort"
	"time"
)

// Critical-path extraction: given one trace's spans and a root, find
// the longest causal chain — the sequence of spans that actually set
// the root's latency — by walking backwards from the root's end through
// the last-finishing child at each level. Every instant of the root's
// window is attributed to exactly one span (gaps between children
// belong to the parent's own time), so segment durations sum exactly
// to the root duration. This is the runtime analogue of the paper's
// Eq. 5–9 idle accounting: the ByKind rollup says how much of a job's
// latency was queueing, simulation stages, data transport, or network.

// Segment is one contiguous stretch of the critical path, attributed
// to a single span.
type Segment struct {
	SpanID string    `json:"spanId"`
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Sec    float64   `json:"sec"`
}

// KindTotal aggregates critical-path time by span kind.
type KindTotal struct {
	Kind string  `json:"kind"`
	Sec  float64 `json:"sec"`
	Frac float64 `json:"frac"` // share of the root duration
}

// CriticalPath is the report for one root span.
type CriticalPath struct {
	TraceID    string      `json:"traceId"`
	RootSpanID string      `json:"rootSpanId"`
	RootName   string      `json:"rootName"`
	Start      time.Time   `json:"start"`
	End        time.Time   `json:"end"`
	TotalSec   float64     `json:"totalSec"`
	Segments   []Segment   `json:"segments"`
	ByKind     []KindTotal `json:"byKind"`
}

// ComputeCriticalPath extracts the critical path of the trace rooted at
// root. spans must all belong to one trace; spans outside the root's
// subtree are ignored. Children are clamped to their parent's window,
// so malformed timestamps cannot push the total past the root duration.
func ComputeCriticalPath(spans []SpanData, root SpanID) (*CriticalPath, error) {
	byID := make(map[SpanID]*SpanData, len(spans))
	children := make(map[SpanID][]*SpanData, len(spans))
	for i := range spans {
		d := &spans[i]
		byID[d.SpanID] = d
	}
	for i := range spans {
		d := &spans[i]
		if d.Parent.IsValid() && byID[d.Parent] != nil && d.Parent != d.SpanID {
			children[d.Parent] = append(children[d.Parent], d)
		}
	}
	r := byID[root]
	if r == nil {
		return nil, fmt.Errorf("tracing: root span %s not in trace", root)
	}

	w := &walker{children: children, onPath: make(map[SpanID]bool)}
	w.walk(r, r.Start, r.End)
	sort.Slice(w.segments, func(i, k int) bool { return w.segments[i].Start.Before(w.segments[k].Start) })

	total := r.End.Sub(r.Start).Seconds()
	cp := &CriticalPath{
		TraceID:    r.TraceID.String(),
		RootSpanID: r.SpanID.String(),
		RootName:   r.Name,
		Start:      r.Start,
		End:        r.End,
		TotalSec:   total,
		Segments:   w.segments,
	}
	byKind := make(map[string]float64)
	for _, s := range w.segments {
		byKind[s.Kind] += s.Sec
	}
	for kind, sec := range byKind {
		frac := 0.0
		if total > 0 {
			frac = sec / total
		}
		cp.ByKind = append(cp.ByKind, KindTotal{Kind: kind, Sec: sec, Frac: frac})
	}
	sort.Slice(cp.ByKind, func(i, k int) bool {
		if cp.ByKind[i].Sec != cp.ByKind[k].Sec {
			return cp.ByKind[i].Sec > cp.ByKind[k].Sec
		}
		return cp.ByKind[i].Kind < cp.ByKind[k].Kind
	})
	return cp, nil
}

type walker struct {
	children map[SpanID][]*SpanData
	segments []Segment
	onPath   map[SpanID]bool // cycle guard: a span visits the path once
}

// walk attributes the window [lo, hi] of span s: gaps and uncovered
// time to s itself, covered stretches to the last-finishing child in
// each stretch, recursively.
func (w *walker) walk(s *SpanData, lo, hi time.Time) {
	if w.onPath[s.SpanID] {
		w.emit(s, lo, hi)
		return
	}
	w.onPath[s.SpanID] = true
	defer delete(w.onPath, s.SpanID)

	cursor := hi
	for cursor.After(lo) {
		// The child that finishes last at or before the cursor (window
		// clamped to [lo, cursor]) is the causal predecessor of whatever
		// the cursor currently rests on.
		var best *SpanData
		var bestEnd time.Time
		for _, c := range w.children[s.SpanID] {
			cs, ce := clamp(c.Start, lo, cursor), clamp(c.End, lo, cursor)
			if !ce.After(cs) { // clamped to nothing
				continue
			}
			if best == nil || ce.After(bestEnd) || (ce.Equal(bestEnd) && cs.Before(clamp(best.Start, lo, cursor))) {
				best, bestEnd = c, ce
			}
		}
		if best == nil {
			break
		}
		// Gap between the child's end and the cursor is the parent's own
		// time (e.g. result derivation after the DES run).
		if cursor.After(bestEnd) {
			w.emit(s, bestEnd, cursor)
		}
		cs := clamp(best.Start, lo, cursor)
		w.walk(best, cs, bestEnd)
		cursor = cs
	}
	if cursor.After(lo) {
		w.emit(s, lo, cursor)
	}
}

func (w *walker) emit(s *SpanData, lo, hi time.Time) {
	if !hi.After(lo) {
		return
	}
	w.segments = append(w.segments, Segment{
		SpanID: s.SpanID.String(),
		Name:   s.Name,
		Kind:   s.Kind,
		Start:  lo,
		End:    hi,
		Sec:    hi.Sub(lo).Seconds(),
	})
}

func clamp(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// FindRoot returns the root span of the trace: the span whose parent is
// zero or absent from the trace. With several candidates the earliest-
// starting one wins. ok is false for an empty slice.
func FindRoot(spans []SpanData) (SpanData, bool) {
	present := make(map[SpanID]bool, len(spans))
	for _, d := range spans {
		present[d.SpanID] = true
	}
	var root SpanData
	found := false
	for _, d := range spans {
		if d.Parent.IsValid() && present[d.Parent] {
			continue
		}
		if !found || d.Start.Before(root.Start) {
			root, found = d, true
		}
	}
	return root, found
}

// Depth returns the maximum ancestor-chain length in the trace (a
// root-only trace has depth 1). The campaign service's tests require
// the request → campaign → job → stage chain to reach at least 4.
func Depth(spans []SpanData) int {
	byID := make(map[SpanID]SpanData, len(spans))
	for _, d := range spans {
		byID[d.SpanID] = d
	}
	memo := make(map[SpanID]int, len(spans))
	var depth func(id SpanID, seen map[SpanID]bool) int
	depth = func(id SpanID, seen map[SpanID]bool) int {
		if v, ok := memo[id]; ok {
			return v
		}
		if seen[id] {
			return 0
		}
		seen[id] = true
		d, ok := byID[id]
		v := 1
		if ok && d.Parent.IsValid() {
			if _, ok := byID[d.Parent]; ok {
				v = depth(d.Parent, seen) + 1
			}
		}
		delete(seen, id)
		memo[id] = v
		return v
	}
	max := 0
	for _, d := range spans {
		if v := depth(d.SpanID, make(map[SpanID]bool)); v > max {
			max = v
		}
	}
	return max
}
