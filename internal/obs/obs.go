// Package obs is the live instrumentation layer of the reproduction: a
// zero-dependency (stdlib-only) event bus, metrics registry, and trace
// exporters threaded through the discrete-event engine (internal/sim), the
// data transport layer (internal/dtl), the network fabric
// (internal/network), and the simulated runtime (internal/runtime).
//
// The paper's argument rests on seeing inside in situ execution: TAU-level
// per-stage timings and counters make the efficiency model (Eq. 1-3) and
// the multi-stage indicators (Eq. 5-9) computable. The post-hoc
// trace.EnsembleTrace records the outcome; this package records the
// behaviour — process lifecycle, resource occupancy, queue depths, staging
// transfers, and link utilization — keyed to the virtual clock, so a run
// can be debugged (open it in ui.perfetto.dev) and its resource timelines
// analyzed while the model stays untouched.
//
// Instrumentation is nil-safe by design: every Recorder method begins with
// a nil-receiver check, so threading a nil *Recorder through the simulator
// costs one branch per emission site and leaves determinism and benchmark
// numbers unaffected. See BenchmarkObsOverhead at the repository root.
package obs

import "fmt"

// Kind classifies an instrumentation event.
type Kind uint8

const (
	// ProcStart marks a simulated process beginning execution.
	ProcStart Kind = iota
	// ProcEnd marks a simulated process finishing.
	ProcEnd
	// StageBegin marks the start of an in situ stage (S, I^S, W, R, A,
	// I^A) on a component.
	StageBegin
	// StageEnd marks the end of an in situ stage; Value carries the bytes
	// moved for I/O stages.
	StageEnd
	// ResourceAcquire marks units taken from a counted resource (cores on
	// a node); Value is the units acquired.
	ResourceAcquire
	// ResourceRelease marks units returned; Value is the units released.
	ResourceRelease
	// QueueDepth samples the depth of a queue (a labeled store's token
	// count); Value is the new depth.
	QueueDepth
	// PutBegin marks the start of a DTL write (staging data out).
	PutBegin
	// PutEnd marks the end of a DTL write; Value is the bytes staged.
	PutEnd
	// GetBegin marks the start of a DTL read (staging data in).
	GetBegin
	// GetEnd marks the end of a DTL read; Value is the bytes staged.
	GetEnd
	// FlowStart marks a network transfer joining the fabric; Value is the
	// transfer size in bytes, Node/Node2 the source/destination.
	FlowStart
	// FlowEnd marks a network transfer leaving the fabric (completed or
	// interrupted); Value is the bytes actually delivered.
	FlowEnd
	// GaugeSet samples an arbitrary named quantity (memory-bandwidth
	// pressure, link occupancy); Value is the sample.
	GaugeSet
	// FaultInject marks an injected fault firing: Subject is the afflicted
	// component/tier/node label, Detail the fault kind ("staging",
	// "node-crash", "degradation", "straggler").
	FaultInject
	// RetryAttempt marks a staging retry being scheduled after a transient
	// fault; Detail is the stage, Value the attempt number (1 = first
	// retry).
	RetryAttempt
	// ComponentRestart marks a component restarting after a crash fault;
	// Value is the restart count so far.
	ComponentRestart
	// MemberDrop marks an ensemble member being dropped under graceful
	// degradation; Value is the member index.
	MemberDrop
	// CounterSet samples a monotonic named counter (campaign submissions,
	// cache hits); Value is the cumulative count.
	CounterSet
	numKinds
)

var kindNames = [numKinds]string{
	"proc-start", "proc-end", "stage-begin", "stage-end",
	"resource-acquire", "resource-release", "queue-depth",
	"put-begin", "put-end", "get-begin", "get-end",
	"flow-start", "flow-end", "gauge",
	"fault", "retry", "restart", "member-drop", "counter",
}

// String returns the event taxonomy name of the kind.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k < numKinds }

// NoNode marks events with no node association.
const NoNode = -1

// Event is one instrumentation record. Events are keyed to the virtual
// clock (T, in simulated seconds) and carry a small fixed schema so the
// recorder allocates nothing beyond the backing slice.
type Event struct {
	// T is the virtual time of the event in seconds.
	T float64
	// Kind classifies the event.
	Kind Kind
	// Subject names what the event is about: a process/component name, a
	// resource label, or a link label ("n0->n1").
	Subject string
	// Detail refines the subject: the stage name for stage events, the
	// tier name for DTL events, the gauge name for gauge events.
	Detail string
	// Node is the primary node index (NoNode when not applicable).
	Node int
	// Node2 is the secondary node for transfers (destination); NoNode
	// otherwise.
	Node2 int
	// Value carries the event magnitude: bytes, queue depth, units.
	Value float64
}

// Recorder is the typed event bus. A nil *Recorder is a valid no-op
// recorder: every method returns immediately, so instrumented code does
// not need its own guards. Recorder is not safe for concurrent use from
// multiple OS threads running simultaneously; the discrete-event engine's
// cooperative scheduling (exactly one process executes at a time, with
// channel handoffs establishing happens-before edges) satisfies this.
type Recorder struct {
	clock  func() float64
	events []Event
	sink   Sink
}

// Sink receives a live mirror of the recorder's operational emissions —
// monotonic counters, queue depths, and gauges — as they happen, in
// addition to the event log. It exists to bridge obs telemetry into the
// service-tier metrics registry (telemetry.ObsSink satisfies it), so one
// Prometheus scrape covers both the simulated and the serving world.
// Sink methods are called synchronously from the emission site and must
// be safe under whatever serialization the recorder's callers provide.
type Sink interface {
	// Count mirrors Recorder.Count: a cumulative total for a named counter.
	Count(name string, total float64)
	// QueueDepth mirrors Recorder.QueueDepth.
	QueueDepth(queue string, depth int)
	// Gauge mirrors Recorder.Gauge.
	Gauge(subject, name string, node int, value float64)
}

// SetSink installs (or, with nil, removes) the live mirror for counter,
// queue-depth, and gauge emissions.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.sink = s
}

// NewRecorder returns a recorder reading timestamps from clock (typically
// Env.Now of the simulation environment). A nil clock stamps every event
// with zero, which suits recorders fed by post-hoc converters that set
// times explicitly.
func NewRecorder(clock func() float64) *Recorder {
	return &Recorder{clock: clock}
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// SetClock rebinds the timestamp source. sim.Env.SetRecorder calls this so
// a recorder constructed before the environment exists (e.g. by a CLI flag
// handler) picks up the virtual clock when the run starts.
func (r *Recorder) SetClock(clock func() float64) {
	if r == nil {
		return
	}
	r.clock = clock
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded events in emission order. The slice is the
// recorder's backing storage; callers must not mutate it while recording
// continues.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Reset discards all recorded events, keeping the clock.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
}

// now reads the clock (zero without one).
func (r *Recorder) now() float64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// Emit appends a fully specified event, stamping it with the clock.
// Prefer the typed helpers; Emit exists for converters and tests.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
}

// EmitNow appends ev stamped at the current clock reading.
func (r *Recorder) EmitNow(ev Event) {
	if r == nil {
		return
	}
	ev.T = r.now()
	r.events = append(r.events, ev)
}

// ProcStart records a process beginning execution.
func (r *Recorder) ProcStart(name string, node int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: ProcStart, Subject: name, Node: node, Node2: NoNode})
}

// ProcEnd records a process finishing.
func (r *Recorder) ProcEnd(name string, node int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: ProcEnd, Subject: name, Node: node, Node2: NoNode})
}

// StageBegin records the start of stage on the named component.
func (r *Recorder) StageBegin(component, stage string, node int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: StageBegin, Subject: component, Detail: stage, Node: node, Node2: NoNode})
}

// StageEnd records the end of stage on the named component; bytes carries
// the data moved for I/O stages (zero otherwise).
func (r *Recorder) StageEnd(component, stage string, node int, bytes float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: StageEnd, Subject: component, Detail: stage, Node: node, Node2: NoNode, Value: bytes})
}

// ResourceAcquire records units taken from a counted resource.
func (r *Recorder) ResourceAcquire(resource string, node int, units float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: ResourceAcquire, Subject: resource, Node: node, Node2: NoNode, Value: units})
}

// ResourceRelease records units returned to a counted resource.
func (r *Recorder) ResourceRelease(resource string, node int, units float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: ResourceRelease, Subject: resource, Node: node, Node2: NoNode, Value: units})
}

// QueueDepth samples the depth of the named queue.
func (r *Recorder) QueueDepth(queue string, depth int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: QueueDepth, Subject: queue, Node: NoNode, Node2: NoNode, Value: float64(depth)})
	if r.sink != nil {
		r.sink.QueueDepth(queue, depth)
	}
}

// PutBegin records the start of a DTL write by the calling process.
func (r *Recorder) PutBegin(tier string, node int, bytes int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: PutBegin, Subject: "dtl", Detail: tier, Node: node, Node2: NoNode, Value: float64(bytes)})
}

// PutEnd records the completion of a DTL write.
func (r *Recorder) PutEnd(tier string, node int, bytes int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: PutEnd, Subject: "dtl", Detail: tier, Node: node, Node2: NoNode, Value: float64(bytes)})
}

// GetBegin records the start of a DTL read from producerNode into
// consumerNode.
func (r *Recorder) GetBegin(tier string, producerNode, consumerNode int, bytes int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: GetBegin, Subject: "dtl", Detail: tier, Node: producerNode, Node2: consumerNode, Value: float64(bytes)})
}

// GetEnd records the completion of a DTL read.
func (r *Recorder) GetEnd(tier string, producerNode, consumerNode int, bytes int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: GetEnd, Subject: "dtl", Detail: tier, Node: producerNode, Node2: consumerNode, Value: float64(bytes)})
}

// FlowStart records a transfer joining the fabric.
func (r *Recorder) FlowStart(link string, src, dst int, bytes float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: FlowStart, Subject: link, Node: src, Node2: dst, Value: bytes})
}

// FlowEnd records a transfer leaving the fabric; delivered is the bytes
// actually moved (less than the request if interrupted).
func (r *Recorder) FlowEnd(link string, src, dst int, delivered float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: FlowEnd, Subject: link, Node: src, Node2: dst, Value: delivered})
}

// Gauge samples the named quantity on the subject.
func (r *Recorder) Gauge(subject, name string, node int, value float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: GaugeSet, Subject: subject, Detail: name, Node: node, Node2: NoNode, Value: value})
	if r.sink != nil {
		r.sink.Gauge(subject, name, node, value)
	}
}

// Fault records an injected fault firing against subject; kind names the
// fault taxonomy entry ("staging", "node-crash", "degradation",
// "straggler") and value carries a kind-specific magnitude (bytes lost,
// slowdown factor, bandwidth factor).
func (r *Recorder) Fault(subject, kind string, node int, value float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: FaultInject, Subject: subject, Detail: kind, Node: node, Node2: NoNode, Value: value})
}

// Retry records a staging retry scheduled for component after a transient
// fault in stage; attempt is 1-based.
func (r *Recorder) Retry(component, stage string, node, attempt int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: RetryAttempt, Subject: component, Detail: stage, Node: node, Node2: NoNode, Value: float64(attempt)})
}

// Restart records a component restarting after a crash fault; n counts the
// restarts so far for the component.
func (r *Recorder) Restart(component string, node, n int) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: ComponentRestart, Subject: component, Node: node, Node2: NoNode, Value: float64(n)})
}

// Count samples the cumulative value of the named monotonic counter
// (e.g. "campaign.cache.hits"). Analyze keeps the latest sample per
// counter, so emitting on every change yields exact final totals plus a
// QueueDepth-style timeline of intermediate values.
func (r *Recorder) Count(name string, total float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: CounterSet, Subject: name, Node: NoNode, Node2: NoNode, Value: total})
	if r.sink != nil {
		r.sink.Count(name, total)
	}
}

// MemberDropped records an ensemble member leaving the run under graceful
// degradation; cause summarizes the triggering fault.
func (r *Recorder) MemberDropped(member int, cause string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: r.now(), Kind: MemberDrop, Subject: fmt.Sprintf("m%d", member), Detail: cause, Node: NoNode, Node2: NoNode, Value: float64(member)})
}
