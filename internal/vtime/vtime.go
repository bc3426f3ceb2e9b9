// Package vtime is a deterministic discrete-event simulation kernel:
// a virtual clock, a cancellable event queue, and a seeded random
// source. All grid experiments run on virtual seconds, so a scenario
// that models hours of DAS-2 time executes in milliseconds and two runs
// with the same seed produce identical traces.
package vtime

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Timer is a handle to a scheduled event; it can be cancelled, and
// scheduled again with Reset.
type Timer struct {
	fn    func()
	index int  // heap index, -1 while not in the queue
	owner *Sim // for indexed removal on Cancel
}

// Cancel prevents the event from firing and removes it from the queue
// immediately (O(log n)), so cancelled events don't pile up in
// long-running simulations with heavy timer churn. Safe to call
// multiple times and after the event fired (then it is a no-op).
func (t *Timer) Cancel() {
	if t.owner != nil && t.index >= 0 {
		t.owner.events.remove(t.index)
	}
}

// Reset schedules the timer's callback d virtual seconds from now, in
// place of its pending schedule if it has one. A timer that fired or
// was cancelled can be Reset, so an event that recurs (a node's next
// leaf, its next retry) needs one Timer for the whole run.
func (t *Timer) Reset(d float64) {
	t.Cancel()
	t.owner.post(t.owner.now+Time(d), t.fn, t)
}

// Pending reports whether the timer is scheduled and has yet to fire.
func (t *Timer) Pending() bool { return t.index >= 0 }

// eventHeap is a binary min-heap on (at, seq). The key sits in the
// slot next to the callback, so sifting compares without following a
// pointer, and the sifts are written out instead of going through
// container/heap's interface: the queue is the hot loop of every
// simulation. (at, seq) is a total order, so the firing order does not
// depend on the heap's shape.
//
// Almost every event posts a successor, so an event that fires keeps
// its slot at the root until its callback returns (Sim.spent): the
// first event the callback posts takes the slot over and sifts down
// from there, which costs one sift per event where a pop and a push
// cost two. The spent event is the queue's minimum (the current time,
// the lowest sequence at that time), so a removal during the callback
// never sifts past it, and the order the rest of the queue fires in
// is the same as if it had left first.
type eventHeap []event

type event struct {
	at  uint64 // math.Float64bits of the time: never negative, so the bits order like the numbers
	seq uint64 // FIFO among simultaneous events
	fn  func()
	t   *Timer // nil for an event posted without a handle
}

// lt is 1 when e fires before o and 0 otherwise: a 128-bit compare
// through the borrow, without a branch. Which of two children is the
// earlier is a coin toss, and the predictor loses it every other time.
func (e event) lt(o event) int {
	_, borrow := bits.Sub64(e.seq, o.seq, 0)
	_, borrow = bits.Sub64(e.at, o.at, borrow)
	return int(borrow)
}

func (e event) before(o event) bool { return e.lt(o) == 1 }

func (e event) time() Time { return Time(math.Float64frombits(e.at)) }

// set stores e in slot i.
func (h eventHeap) set(i int, e event) {
	h[i] = e
	if e.t != nil {
		e.t.index = i
	}
}

// up moves e from slot i towards the root until its parent fires first.
func (h eventHeap) up(i int, e event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, e)
}

// down moves e from slot i towards the leaves until both children fire
// later.
func (h eventHeap) down(i int, e event) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n {
			child += h[r].lt(h[child])
		}
		if !h[child].before(e) {
			break
		}
		h.set(i, h[child])
		i = child
	}
	h.set(i, e)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, event{})
	h.up(len(*h)-1, e)
}

// remove takes the event in slot i out of the queue.
func (h *eventHeap) remove(i int) event {
	old := *h
	e := old[i]
	last := old[len(old)-1]
	old[len(old)-1] = event{}
	*h = old[:len(old)-1]
	if e.t != nil {
		e.t.index = -1
	}
	if i < len(*h) {
		if last.before(old[i]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	return e
}

// Sim is the simulation kernel. It is not safe for concurrent use: the
// whole simulation runs single-threaded, which is what makes it
// deterministic.
type Sim struct {
	now     Time
	events  eventHeap
	spent   bool // events[0] is the firing event, which the next post overwrites
	seq     uint64
	fired   uint64
	rng     *rand.Rand
	stopped bool
}

// New returns a kernel whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the kernel's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// at schedules fn to run at virtual time t and returns its handle.
func (s *Sim) at(t Time, fn func()) *Timer {
	ev := s.NewTimer(fn)
	s.post(t, fn, ev)
	return ev
}

// NewTimer returns a timer for fn that is not scheduled; Reset
// schedules it.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{fn: fn, index: -1, owner: s}
}

// PostAt schedules fn at virtual time t without a handle: the event
// cannot be cancelled and costs no allocation of its own. It takes its
// turn in the same FIFO order as After's events.
func (s *Sim) PostAt(t Time, fn func()) { s.post(t, fn, nil) }

// Post is PostAt d virtual seconds from now.
func (s *Sim) Post(d float64, fn func()) { s.post(s.now+Time(d), fn, nil) }

// post queues fn at t. Scheduling in the past panics: it would
// silently reorder causality. So does a NaN time, which compares false
// with everything and whose bits would sort it after +Inf.
func (s *Sim) post(t Time, fn func(), h *Timer) {
	if !(t >= s.now) {
		panic(fmt.Sprintf("vtime: scheduling event at %v before now %v", t, s.now))
	}
	if t == 0 {
		t = 0 // -0 would sort after every positive time by its bits
	}
	s.seq++
	e := event{math.Float64bits(float64(t)), s.seq, fn, h}
	if s.spent {
		s.spent = false
		s.events.down(0, e)
		return
	}
	s.events.push(e)
}

// After schedules fn to run d virtual seconds from now (d < 0 panics).
func (s *Sim) After(d float64, fn func()) *Timer {
	return s.at(s.now+Time(d), fn)
}

// Fired returns how many events have run so far: the simulator's own
// count of the work it did, from which a caller with a wall clock gets
// events per second.
func (s *Sim) Fired() uint64 { return s.fired }

// Step executes the next event, advancing the clock. It returns false
// when the queue is empty (a cancelled event left it at Cancel time).
// The event stays in the root slot while its callback runs, for the
// callback's first post to take over; a callback that panics leaves it
// there for good.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.events[0]
	if ev.t != nil {
		ev.t.index = -1 // fired: Cancel is a no-op, Reset posts anew
	}
	s.spent = true
	s.now = ev.time()
	s.fired++
	ev.fn()
	if s.spent {
		s.spent = false
		s.events.remove(0)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stopped = true }
