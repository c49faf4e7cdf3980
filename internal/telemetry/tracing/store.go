package tracing

import "sync"

// Store retains completed spans grouped by trace, bounded two ways:
// at most maxTraces traces (oldest trace evicted whole, FIFO) and at
// most maxSpansPerTrace spans per trace (later spans dropped, counted).
// Whole-trace eviction keeps every retained trace internally complete —
// a partially evicted trace would break critical-path extraction. For the
// same reason a deferred batch (Defer) is admitted or dropped whole, and
// is evicted with its trace.
// A nil *Store drops everything. Safe for concurrent use.
type Store struct {
	mu               sync.Mutex
	maxTraces        int
	maxSpansPerTrace int
	traces           map[TraceID]*traceEntry
	order            []TraceID // insertion order for FIFO eviction
	dropped          uint64    // spans dropped by the per-trace cap
}

type traceEntry struct {
	spans   []SpanData
	dropped int
	// Deferred batches no reader has built yet (their spans count against
	// the cap), and the lock under which one reader builds them.
	pending  []batch
	building sync.Mutex
}

// batch is n spans of one trace that build produces on first read.
type batch struct {
	n     int
	build func() []SpanData
}

// DefaultMaxTraces bounds retained traces when NewStore is given 0.
const DefaultMaxTraces = 1024

// DefaultMaxSpansPerTrace bounds spans per trace when NewStore is given 0.
const DefaultMaxSpansPerTrace = 8192

// NewStore returns a bounded span store; zero limits select the
// defaults.
func NewStore(maxTraces, maxSpansPerTrace int) *Store {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &Store{
		maxTraces:        maxTraces,
		maxSpansPerTrace: maxSpansPerTrace,
		traces:           make(map[TraceID]*traceEntry),
	}
}

// admitLocked returns the trace's entry if n more spans fit under the
// per-trace cap, and otherwise drops and counts all n. A trace's first
// contact evicts the oldest traces past the bound. st.mu held.
func (st *Store) admitLocked(id TraceID, n int) *traceEntry {
	e := st.traces[id]
	if e == nil {
		for len(st.order) >= st.maxTraces {
			oldest := st.order[0]
			st.order = st.order[1:]
			delete(st.traces, oldest)
		}
		e = &traceEntry{}
		st.traces[id] = e
		st.order = append(st.order, id)
	}
	held := len(e.spans)
	for _, b := range e.pending {
		held += b.n
	}
	if held+n > st.maxSpansPerTrace {
		e.dropped += n
		st.dropped += uint64(n)
		return nil
	}
	return e
}

// add appends a completed span to its trace, applying both bounds.
func (st *Store) add(d SpanData) {
	if st == nil || !d.TraceID.IsValid() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.admitLocked(d.TraceID, 1); e != nil {
		e.spans = append(e.spans, d)
	}
}

// Defer holds room in the trace for n spans and calls their builder the
// first time the trace is read (Spans) — never, if nobody reads it or the
// trace is evicted first. The n spans count against the per-trace cap now;
// a batch that does not fit is dropped whole, and admit is not called.
// admit runs under the store's lock, atomically with the reservation, and
// returns the builder: it is where the caller takes its own copy of
// whatever the builder reads, so a refused batch costs nothing and no
// reader can run a builder over data its caller still owns. Until the
// first read the batch costs the store only what the builder holds.
func (st *Store) Defer(id TraceID, n int, admit func() (build func() []SpanData)) {
	if st == nil || !id.IsValid() || n <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.admitLocked(id, n); e != nil {
		e.pending = append(e.pending, batch{n, admit()})
	}
}

// Spans returns a copy of every retained span of the trace: those
// recorded live in completion order (children before parents, since a
// parent ends last), then the deferred batches, which the first read
// builds. Returns nil for unknown traces or a nil store.
func (st *Store) Spans(id TraceID) []SpanData {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	e := st.traces[id]
	st.mu.Unlock()
	if e == nil {
		return nil
	}
	st.buildPending(e)
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]SpanData(nil), e.spans...)
}

// buildPending turns e's deferred batches into spans. It builds outside
// st.mu — a batch is thousands of spans, and recording must not wait for
// a reader — and under e.building, so each batch is built once: a
// concurrent reader of the trace waits there, then finds nothing pending
// and the full set stored.
func (st *Store) buildPending(e *traceEntry) {
	e.building.Lock()
	defer e.building.Unlock()
	st.mu.Lock()
	pending := e.pending
	st.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	var built []SpanData
	for _, b := range pending {
		spans := b.build()
		built = append(built, spans[:min(len(spans), b.n)]...)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e.spans = append(e.spans, built...)
	// A fresh slice for what was deferred meanwhile releases the built
	// batches and the events their closures hold.
	e.pending = append([]batch(nil), e.pending[len(pending):]...)
}

// TraceDropped returns how many spans of one trace the per-trace cap
// dropped: a reader's cue that the trace it holds is truncated.
func (st *Store) TraceDropped(id TraceID) int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.traces[id]; e != nil {
		return e.dropped
	}
	return 0
}

// Dropped returns the total spans dropped by the per-trace cap.
func (st *Store) Dropped() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Len returns the number of retained traces.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}
