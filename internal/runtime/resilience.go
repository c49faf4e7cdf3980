package runtime

import (
	"fmt"
	"strings"
)

// DegradationMode selects what the runtime does when a component failure
// exhausts its recovery budget.
type DegradationMode int

const (
	// FailFast aborts the whole ensemble on the first unrecovered
	// component failure (the historical behaviour, and the default).
	FailFast DegradationMode = iota
	// DropMember removes the failed component's entire member (its
	// simulation and all coupled analyses) and lets the remaining members
	// run to completion. Dropped members are annotated in the trace
	// (ComponentTrace.Dropped) and excluded from ensemble aggregation
	// (Eq. 9) via EnsembleTrace.SurvivingMembers.
	DropMember
)

// String returns the flag spelling of the mode.
func (m DegradationMode) String() string {
	switch m {
	case FailFast:
		return "failfast"
	case DropMember:
		return "drop"
	default:
		return fmt.Sprintf("DegradationMode(%d)", int(m))
	}
}

// ParseDegradationMode parses a -degrade flag value.
func ParseDegradationMode(s string) (DegradationMode, error) {
	switch strings.ToLower(s) {
	case "", "failfast", "fail-fast":
		return FailFast, nil
	case "drop", "drop-member", "dropmember":
		return DropMember, nil
	default:
		return FailFast, fmt.Errorf("runtime: unknown degradation mode %q (want failfast or drop)", s)
	}
}

// Resilience configures the recovery policy the simulated backend applies
// around the fault plan. The zero value recovers nothing: every fault is
// immediately unrecoverable and the mode is FailFast, which reproduces
// the historical behaviour exactly.
//
// Fault taxonomy: injected staging failures (faults.StagingFault) and
// stage timeouts are transient — they consume the per-stage retry budget,
// with exponential backoff elapsed on the virtual clock. Node crashes are
// permanent for the interrupted attempt but survivable: each affected
// component may restart up to RestartLimit times, resuming from the
// interrupted stage of its current in situ step (completed steps are
// never re-executed; resuming the failed stage rather than the whole
// step keeps the no-buffering token protocol deadlock-free). When a
// budget is exhausted, Mode decides between aborting the ensemble and
// dropping the member.
type Resilience struct {
	// StagingRetries is the per-stage retry budget for transient faults
	// (injected staging failures, stage timeouts). 0 disables retries.
	StagingRetries int
	// RetryBackoff is the delay before the first retry in virtual
	// seconds. 0 retries immediately.
	RetryBackoff float64
	// BackoffFactor multiplies the backoff after each retry (exponential
	// backoff). Values <= 0 default to 2.
	BackoffFactor float64
	// StageTimeout bounds each staging-stage attempt (W and R) in
	// seconds; a timed-out attempt is treated as a transient fault.
	// 0 disables timeouts.
	StageTimeout float64
	// RestartLimit is the number of crash-restarts each component may
	// perform. 0 makes every crash unrecoverable.
	RestartLimit int
	// RestartDelay is the time a restart takes (process respawn, staging
	// reconnect) in seconds.
	RestartDelay float64
	// Mode selects the degradation policy once recovery is exhausted.
	Mode DegradationMode
}

// normalized fills defaulted fields.
func (r Resilience) normalized() Resilience {
	if r.BackoffFactor <= 0 {
		r.BackoffFactor = 2
	}
	return r
}

// Validate rejects nonsensical policies.
func (r Resilience) Validate() error {
	switch {
	case r.StagingRetries < 0:
		return fmt.Errorf("runtime: negative StagingRetries %d", r.StagingRetries)
	case r.RetryBackoff < 0:
		return fmt.Errorf("runtime: negative RetryBackoff %v", r.RetryBackoff)
	case r.StageTimeout < 0:
		return fmt.Errorf("runtime: negative StageTimeout %v", r.StageTimeout)
	case r.RestartLimit < 0:
		return fmt.Errorf("runtime: negative RestartLimit %d", r.RestartLimit)
	case r.RestartDelay < 0:
		return fmt.Errorf("runtime: negative RestartDelay %v", r.RestartDelay)
	case r.Mode != FailFast && r.Mode != DropMember:
		return fmt.Errorf("runtime: unknown degradation mode %d", r.Mode)
	}
	return nil
}
