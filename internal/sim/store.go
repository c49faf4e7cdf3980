package sim

// Store is an unbounded counting store: a token count and a FIFO of
// processes parked in Get. It is the primitive behind the paper's
// synchronous, no-buffering staging protocol (W_i happens-before R_i
// happens-before W_{i+1}): write permits and staged-chunk announcements
// are tokens, and a process that needs one it does not have waits for it.
type Store struct {
	env   *Env
	count int
	// waiters is a FIFO of parked getters. Pops advance head instead of
	// re-slicing, so a steady wait/wake cycle allocates nothing.
	waiters []*Proc
	head    int
	// label, when set via SetLabel, emits a queue-depth event to the
	// environment's recorder whenever the count changes.
	label string
}

// NewStore returns an empty store.
func NewStore(env *Env) *Store { return &Store{env: env} }

// SetLabel names the store for instrumentation: labeled stores sample
// their token count into the recorder on every change, starting with the
// current count (so a store whose count never changes still appears in
// the timeline).
func (s *Store) SetLabel(label string) {
	s.label = label
	s.record()
}

// record samples the current count for labeled stores.
func (s *Store) record() {
	if s.label == "" {
		return
	}
	s.env.rec.QueueDepth(s.label, s.count)
}

// Len returns the number of tokens held.
func (s *Store) Len() int { return s.count }

// Offer deposits one token without blocking: straight to the oldest
// parked getter if any, otherwise into the count. It needs no process,
// so callbacks can use it.
func (s *Store) Offer() {
	if s.head < len(s.waiters) {
		p := s.waiters[s.head]
		s.waiters[s.head] = nil
		s.head++
		p.Unpark()
		return
	}
	s.count++
	s.record()
}

// Get takes one token, parking p until one is offered if the store is
// empty. It returns a non-nil error if p was interrupted while parked.
func (s *Store) Get(p *Proc) error {
	if s.count > 0 {
		s.count--
		s.record()
		return nil
	}
	if s.head == len(s.waiters) {
		s.waiters = s.waiters[:0]
		s.head = 0
	}
	s.waiters = append(s.waiters, p)
	return p.ParkOn(s)
}

// CancelWait removes p from the waiter queue, preserving FIFO order
// (interrupt path; see the Waiter interface).
func (s *Store) CancelWait(p *Proc) {
	for i := s.head; i < len(s.waiters); i++ {
		if s.waiters[i] == p {
			copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[len(s.waiters)-1] = nil
			s.waiters = s.waiters[:len(s.waiters)-1]
			return
		}
	}
}
