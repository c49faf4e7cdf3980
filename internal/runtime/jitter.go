package runtime

import (
	"math/rand"
	"reflect"
	"sync"
)

// jitter is a component's seeded multiplicative noise source: one draw per
// compute stage, 1 + Jitter·N(0,1) clamped to ±3σ (and to ≥ 0.5). The
// zero value always returns 1.
type jitter struct {
	rng       *rand.Rand
	src       rand.Source // rng's source
	j, lo, hi float64
}

// jitter returns the noise source of the component with the given stream
// index, reusing the generator of recycled when it has one instead of
// allocating. The stream is seeded with Seed·7919 + index, through the
// World's seed memo when one is attached (World.seed).
func (o SimOptions) jitter(componentIndex int64, recycled jitter) jitter {
	src, rng := recycled.src, recycled.rng
	if o.Jitter <= 0 {
		return jitter{rng: rng, src: src}
	}
	if rng == nil {
		src = newSource()
		rng = rand.New(src)
	}
	o.World.seed(src, o.Seed*7919+componentIndex)
	return jitter{rng: rng, src: src, j: o.Jitter, lo: max(1-3*o.Jitter, 0.5), hi: 1 + 3*o.Jitter}
}

func (j *jitter) next() float64 {
	if j.j <= 0 {
		return 1
	}
	return min(max(1+j.j*j.rng.NormFloat64(), j.lo), j.hi)
}

// sourceType is the type rand.NewSource returns, a pointer to a struct
// math/rand does not export: 607 words of lagged-Fibonacci state and two
// indexes, nothing that points elsewhere.
var sourceType = reflect.TypeOf(rand.NewSource(0)).Elem()

// newSource allocates a source of sourceType without seeding it; it must
// be seeded or copied into before its first draw.
func newSource() rand.Source {
	return reflect.New(sourceType).Interface().(rand.Source)
}

// copySource overwrites dst's whole state with src's, so dst draws what
// src would draw next. Both come from newSource.
func copySource(dst, src rand.Source) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// seedSlots bounds the seed memo: each slot holds one source snapshot of
// about 4.9 KB, so a World retains at most ≈ 310 KB of them however much
// traffic it serves. A Table 2 sweep over three seeds uses 12 seed values.
const seedSlots = 64

// seedMemo keeps a snapshot of each freshly seeded source, by seed value,
// so that a World seeds a value once while it stays in the memo: a later
// stream with that seed copies the snapshot (a 4.9 KB copy) instead of
// running the seeding (hundreds of modular multiplications per word).
// Slots are reused oldest first; an evicted slot's snapshot storage takes
// the new seed's state, so the memo allocates at most seedSlots sources.
type seedMemo struct {
	mu    sync.Mutex
	index map[int64]int // seed value → slot
	seeds [seedSlots]int64
	srcs  [seedSlots]rand.Source
	next  int // the slot the next new seed takes
	// hits counts streams copied from a snapshot, misses streams seeded.
	hits, misses int64
}

// seed sets src to the state rand.NewSource(seed) starts in: from the
// World's memo when the value is there, by seeding it (and remembering a
// snapshot) otherwise. A nil World seeds.
func (w *World) seed(src rand.Source, seed int64) {
	if w == nil {
		src.Seed(seed)
		return
	}
	m := &w.seeds
	m.mu.Lock()
	if i, ok := m.index[seed]; ok {
		copySource(src, m.srcs[i])
		m.hits++
		m.mu.Unlock()
		return
	}
	m.misses++
	m.mu.Unlock()

	src.Seed(seed) // outside the lock: this is the cost the memo saves

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index[seed]; ok {
		return // a concurrent stream remembered it first
	}
	i := m.next
	m.next = (m.next + 1) % seedSlots
	if m.srcs[i] == nil {
		m.srcs[i] = newSource()
	} else {
		delete(m.index, m.seeds[i])
	}
	copySource(m.srcs[i], src)
	m.seeds[i] = seed
	m.index[seed] = i
}
