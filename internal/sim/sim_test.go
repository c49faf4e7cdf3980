package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ensemblekit/internal/obs"
)

func TestWaitAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at1, at2 float64
	env.Go("a", func(p *Proc) error {
		if err := p.Wait(1.5); err != nil {
			return err
		}
		at1 = p.Now()
		if err := p.Wait(2.5); err != nil {
			return err
		}
		at2 = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 1.5 || at2 != 4.0 {
		t.Errorf("wait times = %v, %v; want 1.5, 4.0", at1, at2)
	}
	if env.Now() != 4.0 {
		t.Errorf("final clock = %v, want 4.0", env.Now())
	}
}

func TestNegativeWaitIsZero(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) error { return p.Wait(-3) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Errorf("clock = %v, want 0", env.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two processes scheduled at identical times must always run in
	// creation order (FIFO tie-breaking by sequence number).
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"p1", "p2", "p3"} {
			name := name
			env.Go(name, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					if err := p.Wait(1); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("trial %d: different lengths", trial)
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d: nondeterministic order %v vs %v", trial, got, first)
				}
			}
		}
	}
	want := []string{"p1", "p2", "p3", "p1", "p2", "p3", "p1", "p2", "p3"}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestCallbacks(t *testing.T) {
	env := NewEnv()
	var times []float64
	env.At(2, func() { times = append(times, env.Now()) })
	env.At(1, func() { times = append(times, env.Now()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("callback times = %v, want [1 2]", times)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	st.Offer()
	env.Go("holder", func(p *Proc) error {
		if err := st.Get(p); err != nil {
			return err
		}
		// Nobody offers again: the second get below deadlocks.
		return st.Get(p)
	})
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestDeadlockNamesBlockedProcesses pins the deadlock message: it counts
// and names exactly the processes still parked, sorted, and none of the
// finished ones.
func TestDeadlockNamesBlockedProcesses(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		env.Go(name, func(p *Proc) error { return st.Get(p) })
	}
	env.Go("quick", func(p *Proc) error { return nil })
	env.Go("sleeper", func(p *Proc) error { return p.Wait(3) })
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	const want = "sim: deadlock: 3 process(es) blocked: alpha, mid, zeta"
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestProcessPanicIsReported(t *testing.T) {
	env := NewEnv()
	env.Go("bad", func(p *Proc) error {
		panic("boom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want panic report naming the process", err)
	}
}

// TestStoreOffer covers both orders: tokens offered before any Get are
// counted and taken without waiting; an Offer to a parked getter hands the
// token over directly and never shows in the count.
func TestStoreOffer(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	st.Offer()
	st.Offer()
	if st.Len() != 2 {
		t.Fatalf("len = %d, want 2", st.Len())
	}
	var gotAt []float64
	env.Go("getter", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := st.Get(p); err != nil {
				return err
			}
			gotAt = append(gotAt, p.Now())
		}
		return nil
	})
	env.Go("offerer", func(p *Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		if st.Len() != 0 {
			t.Errorf("len with a parked getter = %d, want 0", st.Len())
		}
		st.Offer()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gotAt) != 3 || gotAt[0] != 0 || gotAt[1] != 0 || gotAt[2] != 1 {
		t.Errorf("gets at %v, want [0 0 1]", gotAt)
	}
	if st.Len() != 0 {
		t.Errorf("final len = %d, want 0", st.Len())
	}
}

// TestStoreFIFO checks that parked getters are served in the order they
// parked, one per offer.
func TestStoreFIFO(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	var order []string
	for _, name := range []string{"g1", "g2", "g3"} {
		name := name
		env.Go(name, func(p *Proc) error {
			if err := st.Get(p); err != nil {
				return err
			}
			order = append(order, name)
			return nil
		})
	}
	env.Go("offerer", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := p.Wait(1); err != nil {
				return err
			}
			st.Offer()
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, " ") != "g1 g2 g3" {
		t.Errorf("order = %v, want [g1 g2 g3]", order)
	}
}

// TestSemaphoreFIFO uses a store holding two tokens as a two-unit
// semaphore (Get acquires, Offer releases) and checks that blocked
// acquirers are granted in arrival order as units come back.
func TestSemaphoreFIFO(t *testing.T) {
	env := NewEnv()
	sem := NewStore(env)
	sem.Offer()
	sem.Offer()
	var order []string
	worker := func(name string, hold float64) {
		env.Go(name, func(p *Proc) error {
			if err := sem.Get(p); err != nil {
				return err
			}
			order = append(order, name+"+")
			if err := p.Wait(hold); err != nil {
				return err
			}
			order = append(order, name+"-")
			sem.Offer()
			return nil
		})
	}
	worker("a", 2)
	worker("b", 1)
	worker("c", 1) // blocks until b releases at t=1
	worker("d", 1) // blocks until a or c releases
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=2 a's wait-end event (scheduled at t=0) precedes c's (scheduled
	// at t=1), and d's grant wake is scheduled at t=2, hence a-, c-, d+.
	want := []string{"a+", "b+", "b-", "c+", "a-", "c-", "d+", "d-"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if sem.Len() != 2 {
		t.Errorf("units free at end = %d, want 2", sem.Len())
	}
}

// TestStoreDepthSamples pins what a labeled store records: its count at
// labeling time and after every change, and nothing for a token handed
// straight to a parked getter.
func TestStoreDepthSamples(t *testing.T) {
	env := NewEnv()
	rec := obs.NewRecorder(nil)
	env.SetRecorder(rec)
	st := NewStore(env)
	st.SetLabel("q")
	env.Go("p", func(p *Proc) error {
		st.Offer()
		st.Offer()
		if err := p.Wait(1); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := st.Get(p); err != nil {
				return err
			}
		}
		return nil
	})
	env.Go("o", func(p *Proc) error {
		if err := p.Wait(2); err != nil {
			return err
		}
		st.Offer()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var got [][2]float64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.QueueDepth && ev.Subject == "q" {
			got = append(got, [2]float64{ev.T, ev.Value})
		}
	}
	want := [][2]float64{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 0}}
	if len(got) != len(want) {
		t.Fatalf("depth samples (t, depth) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("depth samples (t, depth) = %v, want %v", got, want)
		}
	}
}

// TestInterruptBlockedOnResource checks that an interrupted getter leaves
// the store's queue: the next offer goes to the getter behind it, and the
// one after that is counted, so no ghost is woken and no token is lost.
func TestInterruptBlockedOnResource(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	var blockedErr error
	blocked := env.Go("blocked", func(p *Proc) error {
		blockedErr = st.Get(p)
		return nil
	})
	gotAt := -1.0
	env.Go("next", func(p *Proc) error {
		if err := st.Get(p); err != nil {
			return err
		}
		gotAt = p.Now()
		return nil
	})
	env.Go("killer", func(p *Proc) error {
		if err := p.Wait(2); err != nil {
			return err
		}
		blocked.Interrupt("giving up")
		return nil
	})
	env.Go("offerer", func(p *Proc) error {
		for _, d := range []float64{3, 1} {
			if err := p.Wait(d); err != nil {
				return err
			}
			st.Offer()
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(blockedErr, ErrInterrupted) {
		t.Fatalf("blockedErr = %v, want ErrInterrupted", blockedErr)
	}
	if gotAt != 3 {
		t.Errorf("second getter served at %v, want 3 (the first offer after the interrupt)", gotAt)
	}
	if st.Len() != 1 {
		t.Errorf("len = %d, want 1 (the last offer had no getter)", st.Len())
	}
}

func TestInterruptTimedWait(t *testing.T) {
	env := NewEnv()
	var waitErr error
	target := env.Go("sleeper", func(p *Proc) error {
		waitErr = p.Wait(100)
		return nil
	})
	env.Go("killer", func(p *Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		target.Interrupt("test kill")
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, ErrInterrupted) {
		t.Fatalf("waitErr = %v, want ErrInterrupted", waitErr)
	}
	if env.Now() != 1 {
		t.Errorf("clock = %v, want 1 (interrupt should cancel the long wait)", env.Now())
	}
}

// TestInterruptAfterOfferIsHeld pins the interrupt of a process whose
// resume is already scheduled: at t = 1 the offerer hands the parked
// getter a token and interrupts it in the same step. The getter keeps its
// token, its next Wait returns the held interrupt at once, and nothing
// else reaches it: no phantom resume from a leaked timer at t = 6, and
// it is not left in the store's queue, so the offer at t = 21 is served
// to its second Get and the one at t = 30 is counted.
func TestInterruptAfterOfferIsHeld(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	var getErr, waitErr, get2Err error
	waitAt, get2At := -1.0, -1.0
	getter := env.Go("getter", func(p *Proc) error {
		getErr = st.Get(p)
		waitErr = p.Wait(5)
		waitAt = p.Now()
		get2Err = st.Get(p)
		get2At = p.Now()
		return nil
	})
	env.Go("offerer", func(p *Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		st.Offer()
		getter.Interrupt("same step")
		getter.Interrupt("dropped: one is already held")
		for _, d := range []float64{20, 9} {
			if err := p.Wait(d); err != nil {
				return err
			}
			st.Offer()
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if getErr != nil {
		t.Errorf("Get = %v, want nil (the offer reached the getter first)", getErr)
	}
	if !errors.Is(waitErr, ErrInterrupted) || !strings.Contains(waitErr.Error(), "same step") || waitAt != 1 {
		t.Errorf("Wait = %v at t=%v, want the held interrupt at t=1", waitErr, waitAt)
	}
	if get2Err != nil || get2At != 21 {
		t.Errorf("second Get = %v at t=%v, want nil at t=21 (no phantom resume at t=6)", get2Err, get2At)
	}
	if st.Len() != 1 {
		t.Errorf("len = %d, want 1 (3 offers, 2 gets: no token lost)", st.Len())
	}
}

// TestInterruptBeforeParkIsHeld checks that a held interrupt reaches a
// ParkOn as well: the getter's Get returns it without parking and leaves
// no entry in the store's queue for a later offer to wake.
func TestInterruptBeforeParkIsHeld(t *testing.T) {
	env := NewEnv()
	st := NewStore(env)
	var getErr error
	getter := env.Go("getter", func(p *Proc) error {
		if err := st.Get(p); err != nil {
			return err
		}
		getErr = st.Get(p)
		return nil
	})
	env.Go("offerer", func(p *Proc) error {
		st.Offer()
		getter.Interrupt("before the second get")
		if err := p.Wait(1); err != nil {
			return err
		}
		st.Offer()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(getErr, ErrInterrupted) {
		t.Errorf("second Get = %v, want the held interrupt", getErr)
	}
	if st.Len() != 1 {
		t.Errorf("len = %d, want 1 (the later offer found no stale getter)", st.Len())
	}
}

func TestInterruptDoneProcessIsNoop(t *testing.T) {
	env := NewEnv()
	target := env.Go("quick", func(p *Proc) error { return nil })
	env.Go("late", func(p *Proc) error {
		if err := p.Wait(1); err != nil {
			return err
		}
		target.Interrupt("too late")
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimerCancel checks that a cancelled timer never fires, and that a
// handle kept past its firing cancels nothing, not even the event that
// reuses its pooled slot.
func TestTimerCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	env.AtTimer(5, func() { fired = true }).Cancel()
	Timer{}.Cancel()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled callback fired")
	}
	env2 := NewEnv()
	count := 0
	stale := env2.AtTimer(1, func() { count++ })
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	env2.At(2, func() { count++ })
	stale.Cancel()
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("callbacks ran %d times, want 2", count)
	}
}

// Property-style test: random DAGs of waits always preserve a monotone
// non-decreasing clock and run deterministically.
func TestClockMonotonicityRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		var last float64
		monotone := true
		n := 5 + rng.Intn(10)
		for i := 0; i < n; i++ {
			waits := make([]float64, 1+rng.Intn(5))
			for j := range waits {
				waits[j] = rng.Float64() * 10
			}
			env.Go("p", func(p *Proc) error {
				for _, w := range waits {
					if err := p.Wait(w); err != nil {
						return err
					}
					if p.Now() < last {
						monotone = false
					}
					last = p.Now()
				}
				return nil
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !monotone {
			t.Fatalf("seed %d: clock went backwards", seed)
		}
	}
}

func TestRunReentrancyRejected(t *testing.T) {
	env := NewEnv()
	var inner error
	env.At(1, func() { inner = env.Run() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Error("reentrant Run should be rejected")
	}
}

// TestEnvReset pins the arena contract behind runtime.World's environment
// pool: a drained environment resets to a state indistinguishable from a
// fresh NewEnv, and a reset is refused while processes are still live.
func TestEnvReset(t *testing.T) {
	run := func(env *Env) float64 {
		env.Go("a", func(p *Proc) error { return p.Wait(2.5) })
		env.Go("b", func(p *Proc) error { return p.Wait(1.25) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return env.Now()
	}
	env := NewEnv()
	first := run(env)
	if err := env.Reset(); err != nil {
		t.Fatalf("Reset after a drained run: %v", err)
	}
	if env.Now() != 0 {
		t.Errorf("clock after Reset = %v, want 0", env.Now())
	}
	if st := env.Stats(); st.EventsDispatched != 0 || st.LiveProcesses != 0 {
		t.Errorf("stats after Reset = %+v, want zero", st)
	}
	if second := run(env); second != first {
		t.Errorf("reused env finished at %v, fresh env at %v", second, first)
	}

	// A live (never-run) process makes the environment unresettable.
	env2 := NewEnv()
	env2.Go("stuck", func(p *Proc) error { return p.Wait(1) })
	if err := env2.Reset(); err == nil {
		t.Error("Reset with a live process succeeded, want error")
	}
}
