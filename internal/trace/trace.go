// Package trace defines the execution record produced by the ensemble
// runtime and consumed by the metrics layer (Table 1 of the paper) and the
// efficiency model (Section 3). It plays the role TAU plays in the paper:
// per-stage timings plus hardware counters for every ensemble component.
//
// A trace is organized exactly like the paper's application model: a
// workflow ensemble contains members; a member contains one simulation and
// K analyses; each component executes in situ steps; each step is divided
// into fine-grained stages (S, I^S, W for simulations; R, A, I^A for
// analyses).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Stage identifies one of the six fine-grained stages of Section 3.1.
type Stage int

const (
	// StageS is the simulation compute stage.
	StageS Stage = iota
	// StageIS is the simulation idle stage (waiting for the analyses to
	// consume the previous chunk).
	StageIS
	// StageW is the simulation write stage (staging data out via the DTL).
	StageW
	// StageR is the analysis read stage (staging data in via the DTL).
	StageR
	// StageA is the analysis compute stage.
	StageA
	// StageIA is the analysis idle stage (waiting for the next chunk).
	StageIA
	// NumStages counts the stages: an array indexed by Stage has this
	// length.
	NumStages
)

var stageNames = [NumStages]string{"S", "I^S", "W", "R", "A", "I^A"}

// String returns the paper's notation for the stage.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Valid reports whether s is one of the defined stages.
func (s Stage) Valid() bool { return s >= 0 && s < NumStages }

// SimulationStages lists the stages a simulation component records per in
// situ step, in execution order (Section 3.1: S before I^S before W).
func SimulationStages() []Stage { return []Stage{StageS, StageIS, StageW} }

// AnalysisStages lists the stages an analysis component records per in situ
// step, in execution order (R before A before I^A).
func AnalysisStages() []Stage { return []Stage{StageR, StageA, StageIA} }

// Counters holds the hardware-counter readings associated with a stage,
// synthesized by the simulated backend consistently with the modeled
// durations (cluster.Profile's CPI and LLC model).
type Counters struct {
	Instructions float64 `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	LLCRefs      float64 `json:"llcRefs"`
	LLCMisses    float64 `json:"llcMisses"`
	Bytes        int64   `json:"bytes"` // bytes moved during I/O stages
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Instructions += other.Instructions
	c.Cycles += other.Cycles
	c.LLCRefs += other.LLCRefs
	c.LLCMisses += other.LLCMisses
	c.Bytes += other.Bytes
}

// StageRecord is one executed stage within an in situ step.
type StageRecord struct {
	Stage    Stage    `json:"stage"`
	Start    float64  `json:"start"`
	Duration float64  `json:"duration"`
	Counters Counters `json:"counters"`
	// Retries counts recovered attempts folded into Duration: transient
	// staging faults and stage timeouts the resilience policy absorbed
	// (0 for a clean stage).
	Retries int `json:"retries,omitempty"`
}

// End returns the completion time of the stage.
func (r StageRecord) End() float64 { return r.Start + r.Duration }

// StepRecord is one in situ step of a component: the ordered stages it
// executed.
type StepRecord struct {
	Index  int           `json:"index"`
	Stages []StageRecord `json:"stages"`
}

// StageDuration returns the duration of stage s within the step
// (0 if the step did not record that stage).
func (sr StepRecord) StageDuration(s Stage) float64 {
	for _, rec := range sr.Stages {
		if rec.Stage == s {
			return rec.Duration
		}
	}
	return 0
}

// Start returns the start time of the step (start of its first stage).
func (sr StepRecord) Start() float64 {
	if len(sr.Stages) == 0 {
		return 0
	}
	return sr.Stages[0].Start
}

// End returns the completion time of the step (end of its last stage).
func (sr StepRecord) End() float64 {
	if len(sr.Stages) == 0 {
		return 0
	}
	return sr.Stages[len(sr.Stages)-1].End()
}

// Kind distinguishes simulations from analyses.
type Kind int

const (
	// KindSimulation marks the (single) simulation of an ensemble member.
	KindSimulation Kind = iota
	// KindAnalysis marks an analysis component.
	KindAnalysis
)

// String returns a human-readable component kind.
func (k Kind) String() string {
	switch k {
	case KindSimulation:
		return "simulation"
	case KindAnalysis:
		return "analysis"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ComponentTrace records the full execution of one ensemble component.
type ComponentTrace struct {
	Name     string       `json:"name"`
	Kind     Kind         `json:"kind"`
	Member   int          `json:"member"`   // member index within the ensemble
	Analysis int          `json:"analysis"` // analysis index j (K_i analyses); 0 for the simulation
	Nodes    []int        `json:"nodes"`    // node indexes occupied
	Cores    int          `json:"cores"`    // cores used
	Start    float64      `json:"start"`
	End      float64      `json:"end"`
	Steps    []StepRecord `json:"steps"`
	Err      string       `json:"err,omitempty"` // non-empty if the component failed
	// Restarts counts crash-restarts the component performed (resilience
	// policy: resume from the interrupted stage after a node crash).
	Restarts int `json:"restarts,omitempty"`
	// Dropped carries the failure cause when the component's member was
	// removed by the drop-member degradation policy; empty otherwise.
	// Dropped members are excluded from ensemble-level aggregation
	// (Eq. 9) by SurvivingMembers.
	Dropped string `json:"dropped,omitempty"`
}

// ExecutionTime returns the component's total wall time (Table 1:
// "time spent in one component").
func (c *ComponentTrace) ExecutionTime() float64 { return c.End - c.Start }

// TotalCounters sums the counters over all stages of all steps.
func (c *ComponentTrace) TotalCounters() Counters {
	var total Counters
	for _, step := range c.Steps {
		for _, st := range step.Stages {
			total.Add(st.Counters)
		}
	}
	return total
}

// StageDurations returns the per-step durations of stage s, one entry per
// recorded step.
func (c *ComponentTrace) StageDurations(s Stage) []float64 {
	out := make([]float64, 0, len(c.Steps))
	for _, step := range c.Steps {
		out = append(out, step.StageDuration(s))
	}
	return out
}

// MemberTrace groups the traces of one ensemble member: one simulation and
// K analyses (the paper's EM_i).
type MemberTrace struct {
	Index      int               `json:"index"`
	Simulation *ComponentTrace   `json:"simulation"`
	Analyses   []*ComponentTrace `json:"analyses"`
}

// K returns the number of couplings (analyses) in the member.
func (m *MemberTrace) K() int { return len(m.Analyses) }

// Makespan returns the member makespan per Table 1: the timespan between
// the simulation start time and the latest analysis end time. Members with
// no analyses fall back to the simulation end.
func (m *MemberTrace) Makespan() float64 {
	if m.Simulation == nil {
		return 0
	}
	if len(m.Analyses) == 0 {
		return m.Simulation.End - m.Simulation.Start
	}
	end := m.Analyses[0].End
	for _, a := range m.Analyses[1:] {
		if a.End > end {
			end = a.End
		}
	}
	return end - m.Simulation.Start
}

// Dropped reports whether the member was removed by the drop-member
// degradation policy (any of its components carries a drop annotation).
func (m *MemberTrace) Dropped() bool {
	for _, c := range m.Components() {
		if c.Dropped != "" {
			return true
		}
	}
	return false
}

// Components returns the simulation followed by the analyses.
func (m *MemberTrace) Components() []*ComponentTrace {
	out := make([]*ComponentTrace, 0, 1+len(m.Analyses))
	if m.Simulation != nil {
		out = append(out, m.Simulation)
	}
	out = append(out, m.Analyses...)
	return out
}

// EnsembleTrace is the complete record of one workflow ensemble execution.
type EnsembleTrace struct {
	Backend string         `json:"backend"` // "simulated"
	Config  string         `json:"config"`  // configuration name (e.g. "C1.5")
	Members []*MemberTrace `json:"members"`
}

// Makespan returns the workflow ensemble makespan per Table 1: the maximum
// makespan among all ensemble members.
func (t *EnsembleTrace) Makespan() float64 {
	max := 0.0
	for _, m := range t.Members {
		if ms := m.Makespan(); ms > max {
			max = ms
		}
	}
	return max
}

// DroppedMembers returns the indexes of members removed by the
// drop-member degradation policy, in order.
func (t *EnsembleTrace) DroppedMembers() []int {
	var out []int
	for _, m := range t.Members {
		if m.Dropped() {
			out = append(out, m.Index)
		}
	}
	return out
}

// SurvivingMembers returns the members that were not dropped. Ensemble
// aggregation (Eq. 9) runs over these: a dropped member contributes
// neither efficiency nor makespan to the objective.
func (t *EnsembleTrace) SurvivingMembers() []*MemberTrace {
	out := make([]*MemberTrace, 0, len(t.Members))
	for _, m := range t.Members {
		if !m.Dropped() {
			out = append(out, m)
		}
	}
	return out
}

// Components returns every component trace in the ensemble, members in
// order, simulation before analyses.
func (t *EnsembleTrace) Components() []*ComponentTrace {
	var out []*ComponentTrace
	for _, m := range t.Members {
		out = append(out, m.Components()...)
	}
	return out
}

// Validate checks structural invariants: stages within each step are
// contiguous and ordered, steps are ordered, and every member has a
// simulation.
func (t *EnsembleTrace) Validate() error {
	for mi, m := range t.Members {
		if m.Simulation == nil {
			return fmt.Errorf("trace: member %d has no simulation", mi)
		}
		for _, c := range m.Components() {
			prevEnd := c.Start
			for si, step := range c.Steps {
				for _, st := range step.Stages {
					if !st.Stage.Valid() {
						return fmt.Errorf("trace: %s step %d: invalid stage %d", c.Name, si, st.Stage)
					}
					if st.Duration < 0 {
						return fmt.Errorf("trace: %s step %d: negative duration for %v", c.Name, si, st.Stage)
					}
					if st.Start < prevEnd-1e-9 {
						return fmt.Errorf("trace: %s step %d: stage %v starts at %v before previous end %v",
							c.Name, si, st.Stage, st.Start, prevEnd)
					}
					prevEnd = st.End()
				}
			}
			if len(c.Steps) > 0 && c.End < prevEnd-1e-9 {
				return fmt.Errorf("trace: %s ends at %v before its last stage at %v", c.Name, c.End, prevEnd)
			}
		}
	}
	return nil
}

// WriteJSON serializes the trace as indented JSON.
func (t *EnsembleTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a trace produced by WriteJSON, rejecting
// structurally invalid traces (out-of-range stages, negative durations,
// overlapping stages) so corrupted files fail at the boundary instead of
// surfacing as nonsense downstream.
func ReadJSON(r io.Reader) (*EnsembleTrace, error) {
	var t EnsembleTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid trace: %w", err)
	}
	return &t, nil
}

// WriteStepsCSV exports every stage of every component as flat CSV rows
// (component, kind, member, step, stage, start, duration, and the full
// counter set: bytes, instructions, cycles, llcRefs, llcMisses) for
// external analysis tools.
func (t *EnsembleTrace) WriteStepsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"component", "kind", "member", "step", "stage", "start", "duration",
		"bytes", "instructions", "cycles", "llcRefs", "llcMisses"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range t.Components() {
		for _, step := range c.Steps {
			for _, st := range step.Stages {
				row := []string{
					c.Name,
					c.Kind.String(),
					strconv.Itoa(c.Member),
					strconv.Itoa(step.Index),
					st.Stage.String(),
					strconv.FormatFloat(st.Start, 'g', -1, 64),
					strconv.FormatFloat(st.Duration, 'g', -1, 64),
					strconv.FormatInt(st.Counters.Bytes, 10),
					strconv.FormatFloat(st.Counters.Instructions, 'g', -1, 64),
					strconv.FormatFloat(st.Counters.Cycles, 'g', -1, 64),
					strconv.FormatFloat(st.Counters.LLCRefs, 'g', -1, 64),
					strconv.FormatFloat(st.Counters.LLCMisses, 'g', -1, 64),
				}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
