package sim

import "fmt"

type procResume struct {
	err error
}

// Waiter is implemented by waiter containers (Store, network flows) that
// park processes with ParkOn. CancelWait must remove p from the
// container's waiter queue so that no later wake reaches it; the engine
// invokes it when the parked process is interrupted, or when a process
// holding an interrupt calls ParkOn — never for a woken process (Unpark
// un-parks it at once). Blocking through an interface value rather than a
// cancel closure keeps the park path allocation-free. CancelWait is for
// blocking-primitive implementations only; application code never calls
// it.
type Waiter interface {
	CancelWait(p *Proc)
}

// Proc is a handle to a simulated process. All blocking methods must be
// called from within the process's own function; Interrupt may be called
// from any process or callback.
type Proc struct {
	env    *Env
	name   string
	resume chan procResume
	done   bool
	err    error

	// pending is the event scheduled to resume this process from a timed
	// wait; it is cancelled on interrupt.
	pending *event
	// blockingQ is the Waiter the process is parked in, if any; an
	// interrupt asks it to forget the process. Unpark clears it when it
	// schedules the resume.
	blockingQ Waiter
	// held is an interrupt that arrived while the process's resume was
	// already scheduled; its next Wait or ParkOn returns it (see
	// Interrupt).
	held error
}

// Name returns the process name given to Env.Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.env.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Err returns the error the process function returned (valid once Done).
func (p *Proc) Err() error { return p.err }

// yield hands control back to the engine and blocks until resumed. The
// calling goroutine itself runs the dispatch loop until it can hand
// control to the next process (or to the Run caller), so a resume costs
// one goroutine crossing, not two.
// It returns the error delivered with the resume (nil for normal wakeups).
func (p *Proc) yield() error {
	p.env.dispatch()
	r := <-p.resume
	return r.err
}

// Wait suspends the process for d seconds of simulated time. Negative
// durations are treated as zero. It returns a non-nil error if the process
// was interrupted while waiting, or at once if it holds an interrupt (see
// Interrupt).
func (p *Proc) Wait(d float64) error {
	if err := p.held; err != nil {
		p.held = nil
		return err
	}
	if d < 0 {
		d = 0
	}
	p.pending = p.env.schedule(p.env.now+d, p, nil, nil)
	err := p.yield()
	p.pending = nil
	return err
}

// Interrupt delivers an error wrapping ErrInterrupted and the given reason
// to the target process. A process blocked in Wait or ParkOn is woken with
// it at once: its timer is cancelled, or its Waiter forgets it. A process
// whose resume is already scheduled (a Store.Offer or Unpark handed it
// what it waited for, or it has not started yet) keeps that resume — a
// process has at most one — and the interrupt is held: its next Wait or
// ParkOn returns it at once. A later interrupt before then is dropped,
// and so is one for a process that has returned. Interrupt must be called
// from another process or a callback, never from the target itself.
func (p *Proc) Interrupt(reason string) {
	if p.done {
		return
	}
	err := fmt.Errorf("%w: %s", ErrInterrupted, reason)
	switch {
	case p.pending != nil:
		p.env.cancelEvent(p.pending)
		p.pending = nil
	case p.blockingQ != nil:
		p.blockingQ.CancelWait(p)
		p.blockingQ = nil
	default:
		if p.held == nil {
			p.held = err
		}
		return
	}
	p.env.wake(p, err)
}

// ParkOn blocks the process in the waiter queue q until another party
// calls Unpark (from a callback or another process). If the process is
// interrupted while parked, or holds an interrupt when it calls ParkOn,
// q.CancelWait(p) runs first and ParkOn returns the interrupt.
func (p *Proc) ParkOn(q Waiter) error {
	if err := p.held; err != nil {
		p.held = nil
		q.CancelWait(p)
		return err
	}
	p.blockingQ = q
	err := p.yield()
	p.blockingQ = nil
	return err
}

// Unpark wakes a process parked with ParkOn. From here on the process is
// no longer parked: an interrupt before it resumes is held, not delivered
// (see Interrupt). Calling Unpark for a process that is not parked
// corrupts the scheduler; callers must guard with their own bookkeeping
// (see the Waiter contract).
func (p *Proc) Unpark() {
	p.blockingQ = nil
	p.env.wake(p, nil)
}
