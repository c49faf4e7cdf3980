//go:build linux

package main

import (
	"encoding/json"
	"os"
	"time"
)

// The benchmark's own spans, recorded around its calls into the server;
// no span is added inside the program. One campaign is one trace:
//
//	campaign
//	├── http.post         POST /v1/campaigns sent → 202 body read
//	├── events.stream     GET .../events sent → summary event read
//	│                     (mark first_event: first byte of the stream)
//	├── http.get_result   GET /v1/campaigns/{id} sent → body read
//	└── client.decode     result JSON decoded and checked
const (
	spanCampaign  = "campaign"
	spanPost      = "http.post"
	spanStream    = "events.stream"
	spanGetResult = "http.get_result"
	spanDecode    = "client.decode"
	markFirst     = "first_event"
)

// span is one timed interval. Trace is the identifier the spans of one
// campaign share; Parent names the span that caused it.
type span struct {
	Trace  string               `json:"trace"`
	Name   string               `json:"name"`
	Parent string               `json:"parent,omitempty"`
	Start  time.Time            `json:"start"`
	End    time.Time            `json:"end"`
	Marks  map[string]time.Time `json:"marks,omitempty"`
}

// spanLog keeps one client's spans in memory. A nil log records nothing,
// which is how the untraced run pays nothing.
type spanLog struct {
	spans []span
}

// add records a finished span.
func (l *spanLog) add(trace, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Trace: trace, Name: name, Parent: parent, Start: start, End: end})
}

// mark attaches a named instant to the span most recently added.
func (l *spanLog) mark(name string, at time.Time) {
	if l == nil || len(l.spans) == 0 {
		return
	}
	s := &l.spans[len(l.spans)-1]
	if s.Marks == nil {
		s.Marks = make(map[string]time.Time, 1)
	}
	s.Marks[name] = at
}

// spanSummary folds the clients' spans into per-name duration samples in
// milliseconds. A span's self time is its duration minus what its
// children cover; only the campaign span has children, and they do not
// overlap.
type spanSummary struct {
	byName     map[string][]float64
	firstEvent []float64 // events.stream start → first_event
	self       []float64 // campaign self time
}

func summarizeSpans(logs []*spanLog) spanSummary {
	out := spanSummary{byName: make(map[string][]float64)}
	for _, l := range logs {
		if l == nil {
			continue
		}
		children := make(map[string]time.Duration) // trace → covered by children
		for _, s := range l.spans {
			d := s.End.Sub(s.Start)
			out.byName[s.Name] = append(out.byName[s.Name], ms(d))
			if s.Parent != "" {
				children[s.Trace] += d
			}
			if at, ok := s.Marks[markFirst]; ok {
				out.firstEvent = append(out.firstEvent, ms(at.Sub(s.Start)))
			}
		}
		for _, s := range l.spans {
			if s.Name == spanCampaign {
				out.self = append(out.self, ms(s.End.Sub(s.Start)-children[s.Trace]))
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes every recorded span as one JSON array.
func writeSpans(path string, logs []*spanLog) error {
	var all []span
	for _, l := range logs {
		if l != nil {
			all = append(all, l.spans...)
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
