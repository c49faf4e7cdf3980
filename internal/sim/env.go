// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It plays the role the physical Cray XC40 testbed plays
// in the paper: the ensemble runtime executes simulations and analyses as
// sim processes over a virtual clock, and every hardware effect (compute
// time, staging transfers, contention) is expressed as timed events.
//
// The engine is process-oriented in the style of SimPy: each simulated
// activity is an ordinary Go function running in its own goroutine, blocked
// and resumed by the environment so that exactly one process executes at a
// time. Determinism is guaranteed by a single event queue ordered by
// (time, insertion sequence).
//
// # Scheduling internals
//
// There is no dedicated scheduler goroutine. The dispatch loop runs on
// whichever goroutine is relinquishing control — the Run caller starting
// the simulation, a process entering a blocking primitive, or a process
// whose function just returned. Timer callbacks (At/AtTimer) execute inline
// on that goroutine with zero crossings, and resuming a process is a
// single buffered-channel send straight from the yielding goroutine to
// the resumed one: one goroutine crossing per event instead of the two a
// central scheduler pays (scheduler->process, process->scheduler). Event
// structs are pooled in a per-environment free list (generation counters
// keep stale cancel handles harmless), and cancelled events are deleted
// lazily (skipped at pop, compacted in bulk when they dominate the
// queue). None of this changes event ordering: the queue is still a
// single binary heap keyed by (time, sequence), so simulated timestamps
// and the obs event stream are bit-identical to the central-scheduler
// implementation (pinned by the golden determinism tests at the
// repository root).
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ensemblekit/internal/obs"
)

// ErrInterrupted is wrapped into the error returned from a blocking
// primitive when the waiting process is interrupted by another process.
var ErrInterrupted = errors.New("sim: interrupted")

// ErrDeadlock is returned by Run when no scheduled events remain but live
// processes are still blocked on resources.
var ErrDeadlock = errors.New("sim: deadlock")

// event is one scheduled occurrence: either a process resume (proc set)
// or a callback (fn set). Events are pooled: gen increments every time an
// event returns to the free list, so a cancel handle captured before the
// recycle can recognize that its event already fired.
type event struct {
	t         float64
	seq       int64
	proc      *Proc // process to resume (nil for callback events)
	err       error // error delivered to the resumed process
	fn        func()
	cancelled bool
	inNow     bool // true while the event sits in nowQ, not the heap
	gen       uint64
}

// Env is a discrete-event simulation environment. Create one with NewEnv,
// register processes with Go, then call Run. Env is not safe for
// concurrent use from multiple user goroutines: all interaction must
// happen either before Run or from within simulated processes/callbacks.
type Env struct {
	now float64
	// queue is a binary min-heap ordered by (t, seq). The heap is
	// maintained by hand (siftUp/siftDown below) rather than through
	// container/heap: the hot path dispatches millions of events and the
	// interface indirection is measurable.
	queue []*event
	// nowQ holds events scheduled at the current instant (wakes, process
	// starts, same-time callbacks — the majority of all events) as a
	// plain FIFO, skipping the heap entirely. This preserves exact
	// (t, seq) order: an event lands in nowQ only when scheduled at
	// t <= now, so its seq is strictly greater than that of every heap
	// event with t == now (those were inserted before the clock reached
	// t), and nowQ itself is appended in seq order. Dispatch therefore
	// drains heap events at the current time first, then nowQ in order,
	// before advancing the clock.
	nowQ    []*event
	nowHead int
	seq     int64
	// free is the event free list; dispatched and compacted events return
	// here and schedule reuses them.
	free []*event
	// cancelledCount tracks cancelled events still sitting in the queue;
	// when they outnumber the live ones the queue is compacted in one
	// O(n) pass instead of popping through them one heap operation each.
	cancelledCount int
	live           int // processes started and not yet finished
	// procs lists every process started since NewEnv or Reset; Run reads
	// it only to name the blocked ones in a deadlock error.
	procs   []*Proc
	fatal   error
	cbPanic any // panic raised by a callback, re-thrown by Run
	running bool
	// controlCh returns the control token to the Run caller when the
	// dispatch loop quiesces (queue empty or fatal). It is buffered so the
	// sender never blocks on it.
	controlCh chan struct{}
	// dispatched counts events delivered (for engine statistics).
	dispatched int64
	// rec is the optional instrumentation bus. A nil recorder is a valid
	// no-op (every obs.Recorder method nil-checks its receiver), so the
	// engine emits unconditionally.
	rec *obs.Recorder
}

// SetRecorder attaches an instrumentation recorder to the environment.
// The engine and the primitives built on it (Store, the network fabric)
// emit lifecycle, queue-depth, and transfer events to it.
// A nil recorder (the default) disables instrumentation at the cost of a
// single branch per emission site; attaching or detaching a recorder
// never changes event ordering, so simulation results are bit-identical
// either way.
func (e *Env) SetRecorder(r *obs.Recorder) {
	e.rec = r
	r.SetClock(e.Now)
}

// Recorder returns the attached recorder (nil when instrumentation is
// off). Components layered over the engine (DTL tiers, the fabric) reach
// the bus through this accessor.
func (e *Env) Recorder() *obs.Recorder { return e.rec }

// Stats reports engine counters: events dispatched and processes started
// minus finished (live).
type Stats struct {
	EventsDispatched int64
	LiveProcesses    int
}

// Stats returns the engine's counters.
func (e *Env) Stats() Stats {
	return Stats{EventsDispatched: e.dispatched, LiveProcesses: e.live}
}

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env {
	return &Env{controlCh: make(chan struct{}, 1)}
}

// Now returns the current simulated time in seconds.
func (e *Env) Now() float64 { return e.now }

// less orders events by (time, insertion sequence); seq is unique so the
// order is total and replays identically.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// newEvent takes an event from the free list (or allocates one).
func (e *Env) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release returns an event to the free list, bumping its generation so
// stale cancel handles become no-ops.
func (e *Env) release(ev *event) {
	ev.gen++
	ev.proc = nil
	ev.err = nil
	ev.fn = nil
	ev.cancelled = false
	ev.inNow = false
	e.free = append(e.free, ev)
}

// schedule inserts an event and returns it (so the caller may cancel it).
// Events at the current instant go to the nowQ FIFO; only genuinely
// future events pay for heap insertion.
func (e *Env) schedule(t float64, proc *Proc, err error, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.newEvent()
	ev.t = t
	ev.seq = e.seq
	e.seq++
	ev.proc = proc
	ev.err = err
	ev.fn = fn
	if t <= e.now {
		ev.inNow = true
		if e.nowHead == len(e.nowQ) && e.nowHead > 0 {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
		e.nowQ = append(e.nowQ, ev)
	} else {
		e.heapPush(ev)
	}
	return ev
}

// cancelEvent marks an event dead. The slot is reclaimed lazily: the
// dispatch loop skips cancelled events as they surface, and when
// cancelled events outnumber live ones in the heap the whole heap is
// compacted in one pass. nowQ events are merely flagged (the FIFO drains
// within the current instant anyway).
func (e *Env) cancelEvent(ev *event) {
	if ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.inNow {
		return
	}
	e.cancelledCount++
	if e.cancelledCount > 64 && e.cancelledCount*2 > len(e.queue) {
		e.compactQueue()
	}
}

// compactQueue drops every cancelled event and re-heapifies. Heapify
// preserves the total (t, seq) order of the survivors, so dispatch order
// is unchanged.
func (e *Env) compactQueue() {
	old := e.queue
	live := old[:0]
	for _, ev := range old {
		if ev.cancelled {
			e.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(old); i++ {
		old[i] = nil
	}
	e.queue = live
	e.cancelledCount = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Env) heapPush(ev *event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

func (e *Env) heapPop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

func (e *Env) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		pv := q[parent]
		if eventLess(pv, ev) {
			break
		}
		q[i] = pv
		i = parent
	}
	q[i] = ev
}

func (e *Env) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m, mv := l, q[l]
		if r := l + 1; r < n && eventLess(q[r], mv) {
			m, mv = r, q[r]
		}
		if eventLess(ev, mv) {
			break
		}
		q[i] = mv
		i = m
	}
	q[i] = ev
}

// At schedules fn to run at absolute simulated time t (clamped to now).
// Callbacks run inline on the dispatching goroutine; they may schedule
// further events and wake processes but must not block.
func (e *Env) At(t float64, fn func()) {
	e.schedule(t, nil, nil, fn)
}

// Timer is a cancellable handle to a scheduled callback. It is a value,
// not a closure, so taking one allocates nothing. The zero Timer is valid
// and cancels nothing.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// AtTimer schedules fn at absolute time t (clamped to now) and returns a
// cancellable handle.
func (e *Env) AtTimer(t float64, fn func()) Timer {
	ev := e.schedule(t, nil, nil, fn)
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// Cancel revokes the timer if it has not fired. Cancelling a fired (or
// zero) timer is a no-op: firing recycles the event and bumps its
// generation, so the handle no longer matches.
func (tm Timer) Cancel() {
	if tm.ev != nil && tm.ev.gen == tm.gen {
		tm.env.cancelEvent(tm.ev)
	}
}

// Go starts a new simulated process executing fn. The process begins at the
// current simulated time, after already-scheduled events at this time.
// The returned Proc may be used to interrupt the process.
func (e *Env) Go(name string, fn func(p *Proc) error) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan procResume, 1)}
	e.live++
	e.procs = append(e.procs, p)
	e.rec.ProcStart(name, obs.NoNode)
	go func() {
		r := <-p.resume // wait for the dispatch loop to start us
		if r.err == nil {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						p.env.fatal = fmt.Errorf("sim: process %q panicked: %v", p.name, rec)
					}
				}()
				p.err = fn(p)
			}()
		} else {
			p.err = r.err
		}
		// This goroutine holds the control token until dispatch hands it
		// off, so the emission below cannot race with other emissions.
		e.rec.ProcEnd(p.name, obs.NoNode)
		p.done = true
		e.live--
		e.dispatch()
	}()
	e.schedule(e.now, p, nil, nil)
	return p
}

// wake schedules p to resume at the current time with the given error.
func (e *Env) wake(p *Proc, err error) {
	e.schedule(e.now, p, err, nil)
}

// dispatch runs the scheduler loop on the calling goroutine until either
// control is handed to a process (a single channel send — the resumed
// process continues the loop when it next yields) or the run quiesces, in
// which case the control token is returned to the Run caller parked on
// controlCh. Callback events execute inline with no crossing at all.
func (e *Env) dispatch() {
	for e.fatal == nil && e.cbPanic == nil {
		// Lazy deletion: cancelled events are dropped when they surface.
		for len(e.queue) > 0 && e.queue[0].cancelled {
			e.cancelledCount--
			e.release(e.heapPop())
		}
		var ev *event
		if len(e.queue) > 0 && e.queue[0].t <= e.now {
			// A heap event at the current instant was inserted before the
			// clock reached this time, so its seq precedes everything in
			// nowQ: it dispatches first.
			ev = e.heapPop()
		} else {
			for e.nowHead < len(e.nowQ) {
				cand := e.nowQ[e.nowHead]
				e.nowQ[e.nowHead] = nil
				e.nowHead++
				if cand.cancelled {
					e.release(cand)
					continue
				}
				ev = cand
				break
			}
			if ev == nil {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
				if len(e.queue) == 0 {
					break
				}
				ev = e.heapPop()
			}
		}
		e.now = ev.t
		e.dispatched++
		if ev.fn != nil {
			fn := ev.fn
			e.release(ev)
			e.runCallback(fn)
			continue
		}
		p := ev.proc
		errv := ev.err
		if p.pending == ev {
			p.pending = nil
		}
		e.release(ev)
		if p.done {
			continue
		}
		p.blockingQ = nil
		p.resume <- procResume{err: errv}
		return
	}
	// No dispatchable work: hand the control token back to Run.
	e.controlCh <- struct{}{}
}

// runCallback executes a callback event, converting a panic into a
// deferred re-panic out of Run (the dispatching goroutine may be a
// process goroutine, which must not crash the program directly).
func (e *Env) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.cbPanic = r
		}
	}()
	fn()
}

// Run executes events until the queue drains. It returns nil on a clean
// completion, ErrDeadlock (wrapped, with the names of blocked processes) if
// live processes remain blocked with no pending events, or the panic error
// if a process panicked.
func (e *Env) Run() error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.dispatch()
	<-e.controlCh
	if e.cbPanic != nil {
		p := e.cbPanic
		e.cbPanic = nil
		panic(p)
	}
	if e.fatal != nil {
		e.drain()
		return e.fatal
	}
	// With the queue dry every live process is parked in a blocking
	// primitive. liveNames (which allocates and sorts) is reached only on
	// this error path, never on a healthy run.
	if e.live > 0 {
		return fmt.Errorf("%w: %d process(es) blocked: %s", ErrDeadlock, e.live, e.liveNames())
	}
	return nil
}

func (e *Env) drain() {
	for _, ev := range e.queue {
		e.release(ev)
	}
	e.queue = e.queue[:0]
	e.cancelledCount = 0
	for i := e.nowHead; i < len(e.nowQ); i++ {
		e.release(e.nowQ[i])
		e.nowQ[i] = nil
	}
	e.nowQ = e.nowQ[:0]
	e.nowHead = 0
}

// Reset returns a quiesced environment to its NewEnv state while keeping
// the event free list and every backing allocation (queue, nowQ, process
// list). It is the arena primitive behind runtime.World's environment
// pool: a campaign reuses one Env per job instead of allocating a fresh
// heap, free list, and channel each time. Reset refuses to run while the
// dispatch loop is active or processes are still live — recycling an
// environment mid-run would corrupt the queue invariants.
func (e *Env) Reset() error {
	if e.running {
		return errors.New("sim: Reset on a running environment")
	}
	if e.live > 0 {
		return fmt.Errorf("sim: Reset with %d live processes", e.live)
	}
	e.drain()
	e.now = 0
	e.seq = 0
	e.dispatched = 0
	clear(e.procs)
	e.procs = e.procs[:0]
	e.fatal = nil
	e.cbPanic = nil
	e.rec = nil
	return nil
}

// liveNames lists the processes that have not finished, sorted.
func (e *Env) liveNames() string {
	names := make([]string, 0, e.live)
	for _, p := range e.procs {
		if !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
