// Package vtime is a deterministic discrete-event simulation kernel:
// a virtual clock, a cancellable event queue, and a seeded random
// source. All grid experiments run on virtual seconds, so a scenario
// that models hours of DAS-2 time executes in milliseconds and two runs
// with the same seed produce identical traces.
package vtime

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Timer is a handle to a scheduled event; it can be cancelled, and
// scheduled again with Reset.
type Timer struct {
	fn    func()
	owner *Sim
	seq   uint64 // sequence number of the pending schedule, 0 if none
}

// Cancel prevents the event from firing. The queue entry stays where
// it is and is dropped unfired when it reaches the front (the timer no
// longer carries its sequence number), so cancelling writes nothing
// but the timer. Safe to call multiple times and after the event fired
// (then it is a no-op).
func (t *Timer) Cancel() {
	if t.seq != 0 {
		t.seq = 0
		t.owner.dead++
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
func (t *Timer) Pending() bool { return t.seq != 0 }

// eventHeap is the queue while it is small: a binary min-heap on
// (at, key). An entry holds no pointer: the callback and the timer sit
// in the Sim's slot array, and the entry names its slot in the low bits
// of key, below the sequence number. So sifting moves 16-byte values
// that the GC does not scan, with no write barrier and no index to keep
// in a timer, and the sifts are written out instead of going through
// container/heap's interface: the queue is the hot loop of every
// simulation. Sequence numbers are unique, so (at, key) orders like
// (at, seq), a total order: the firing order does not depend on the
// heap's shape.
//
// Almost every event posts a successor, so an event that fires keeps
// its entry at the root until its callback returns (Sim.spent): the
// first event the callback posts takes the root over and sifts down
// from there, which costs one sift per event where a pop and a push
// cost two.
type eventHeap []event

type event struct {
	at  uint64 // math.Float64bits of the time: never negative, so the bits order like the numbers
	key uint64 // seq<<slotBits | slot; seq keeps simultaneous events FIFO
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1

	// rebuildSlack is how many dead entries the queue carries beyond
	// its live ones before post rebuilds it from the live ones.
	rebuildSlack = 64

	// A heap that reaches toRadix entries becomes a radix heap, and a
	// radix heap left with fewer than toHeap becomes a heap again. A
	// simulation's queue of a few dozen entries costs one short sift an
	// event as a heap, less than the radix heap's spreading; a queue of
	// thousands costs a dozen levels a sift.
	toRadix = 1024
	toHeap  = 256
)

func (e event) seq() uint64 { return e.key >> slotBits }
func (e event) slot() int   { return int(e.key & slotMask) }

// lt is 1 when e fires before o and 0 otherwise: a 128-bit compare
// through the borrow, without a branch. Which of two children is the
// earlier is a coin toss, and the predictor loses it every other time.
func (e event) lt(o event) int {
	_, borrow := bits.Sub64(e.key, o.key, 0)
	_, borrow = bits.Sub64(e.at, o.at, borrow)
	return int(borrow)
}

func (e event) before(o event) bool { return e.lt(o) == 1 }

func (e event) time() Time { return Time(math.Float64frombits(e.at)) }

// up moves e from slot i towards the root until its parent fires first.
func (h eventHeap) up(i int, e event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
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
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

func (h *eventHeap) push(e event) {
	*h = append(*h, event{})
	h.up(len(*h)-1, e)
}

// init orders h as a heap.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// popRoot takes the root entry out of the queue.
func (h *eventHeap) popRoot() {
	old := *h
	last := old[len(old)-1]
	*h = old[:len(old)-1]
	if len(*h) > 0 {
		h.down(0, last)
	}
}

// radixHeap is the queue while it is large: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) on the time's bits. post
// refuses a time before now, so no entry is earlier than last, the time
// of the entry taken out last. Bucket i > 0 holds the entries whose time
// first differs from last in bit i-1, so every entry of a lower bucket
// fires earlier; bucket 0 holds the entries at last, in key order (a
// pushed entry has the largest key yet). Taking the earliest out
// empties bucket 0 from its front; when it runs dry, the lowest
// non-empty bucket is spread over those below it around its own
// earliest time. An entry only moves to a lower bucket, a few times in
// its life, where a heap of thousands sifts a dozen levels a pop.
type radixHeap struct {
	b    [64][]event // a time is never negative: bit 63 never differs
	head int         // b[0][:head] is taken out
	full uint64      // bit i, i > 0, is set while b[i] is not empty
	last uint64
	n    int // entries queued
}

func (r *radixHeap) push(e event) {
	i := bits.Len64(e.at ^ r.last)
	r.b[i] = append(r.b[i], e)
	r.full |= 1 << i
	r.n++
}

// min returns the earliest entry, which pop takes out. The queue must
// not be empty.
func (r *radixHeap) min() event {
	if r.head == len(r.b[0]) {
		r.refill()
	}
	return r.b[0][r.head]
}

func (r *radixHeap) pop() {
	r.head++
	r.n--
}

// refill spreads the lowest non-empty bucket over the ones below it,
// around its earliest time, which becomes last. Its entries agree with
// each other above the bit that put them there, so none stays.
func (r *radixHeap) refill() {
	r.b[0], r.head = r.drained(r.b[0]), 0
	i := bits.TrailingZeros64(r.full &^ 1)
	src := r.b[i]
	m := src[0].at
	for _, e := range src[1:] {
		m = min(m, e.at)
	}
	r.last = m
	r.full &^= 1 << i
	for _, e := range src {
		j := bits.Len64(e.at ^ m)
		r.b[j] = append(r.b[j], e)
		r.full |= 1 << j
	}
	r.b[i] = r.drained(src)
	r.sortFront()
}

// sortFront puts bucket 0 in key order after entries came in out of
// order. Usually there is one, or a few nearly in order.
func (r *radixHeap) sortFront() {
	b := r.b[0]
	if len(b) > 32 {
		slices.SortFunc(b, func(x, y event) int { return cmp.Compare(x.key, y.key) })
		return
	}
	for k := 1; k < len(b); k++ {
		for j := k; j > 0 && b[j].key < b[j-1].key; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// drained empties bucket b for reuse, or drops its array when that is
// larger than half the queue: a bucket that once took a burst would
// keep it for the rest of the run.
func (r *radixHeap) drained(b []event) []event {
	if cap(b) > r.n/2 {
		return nil
	}
	return b[:0]
}

// slot is what an entry points at: the callback, and the timer whose
// schedule the entry is (nil for an event posted without a handle).
type slot struct {
	fn func()
	t  *Timer
}

// Sim is the simulation kernel. It is not safe for concurrent use: the
// whole simulation runs single-threaded, which is what makes it
// deterministic.
type Sim struct {
	now     Time
	events  eventHeap // the queue, unless big
	spent   bool      // events[0] is the firing event, which the next post overwrites
	big     bool      // the queue is radix, and events is empty
	dead    int       // entries in the queue whose timer was cancelled or reset
	slots   []slot
	free    []int32 // indices of unused slots
	seq     uint64
	fired   uint64
	rng     *rand.Rand
	stopped bool
	radix   radixHeap // last: a heap's event touches none of its 1.6 KB
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
	return &Timer{fn: fn, owner: s}
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
	if s.seq == maxSeq {
		panic("vtime: out of sequence numbers")
	}
	if s.dead > s.entries()-s.dead+rebuildSlack {
		s.rebuild()
	}
	s.seq++
	var i int
	if k := len(s.free); k > 0 {
		i = int(s.free[k-1])
		s.free = s.free[:k-1]
	} else {
		i = len(s.slots)
		if i > slotMask {
			panic("vtime: out of queue slots")
		}
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{fn, h}
	if h != nil {
		h.seq = s.seq
	}
	e := event{math.Float64bits(float64(t)), s.seq<<slotBits | uint64(i)}
	if s.spent {
		s.spent = false
		s.events.down(0, e)
		return
	}
	if s.big {
		s.radix.push(e)
		return
	}
	s.events.push(e)
	if len(s.events) >= toRadix {
		s.toRadix()
	}
}

// entries is the number of entries queued, dead and spent ones
// included.
func (s *Sim) entries() int {
	if s.big {
		return s.radix.n
	}
	return len(s.events)
}

// toRadix moves the heap's entries into the radix heap around now: no
// entry is earlier, and last may be later, carried past the clock by
// dead entries the radix heap dropped before it last became a heap.
// spent is false: the firing event's first post took its place.
func (s *Sim) toRadix() {
	s.radix.last = math.Float64bits(float64(s.now))
	for _, e := range s.events {
		s.radix.push(e)
	}
	s.radix.sortFront()
	s.events = s.events[:0]
	s.big = true
}

// toHeap moves the radix heap's entries into the heap.
func (s *Sim) toHeap() {
	r := &s.radix
	s.events = append(s.events, r.b[0][r.head:]...)
	r.b[0], r.head = r.drained(r.b[0]), 0
	for i := 1; i < len(r.b); i++ {
		s.events = append(s.events, r.b[i]...)
		r.b[i] = r.drained(r.b[i])
	}
	r.full, r.n = 0, 0
	s.events.init()
	s.big = false
}

// release returns slot i to the free list and hands back what it held.
func (s *Sim) release(i int) slot {
	sl := s.slots[i]
	s.slots[i] = slot{}
	s.free = append(s.free, int32(i))
	return sl
}

// isDead reports whether e's timer was cancelled or reset since e was
// posted.
func (s *Sim) isDead(e event) bool {
	t := s.slots[e.slot()].t
	return t != nil && t.seq != e.seq()
}

// pop takes the earliest entry out of the queue. In the heap, dead
// entries at the end of the array go first: dropping one there is free,
// and left in place it would cost a sift from the root when it got
// there.
func (s *Sim) pop() {
	if s.big {
		s.radix.pop()
		if s.radix.n < toHeap {
			s.toHeap()
		}
		return
	}
	for s.dead > 0 && len(s.events) > 1 {
		last := s.events[len(s.events)-1]
		if !s.isDead(last) {
			break
		}
		s.release(last.slot())
		s.dead--
		s.events = s.events[:len(s.events)-1]
	}
	s.events.popRoot()
}

// rebuild drops the dead entries, and the spent one, and re-heaps the
// rest, or keeps the radix heap's buckets in their order. The order the
// live entries fire in is their (at, key) order, whatever the queue's
// shape.
func (s *Sim) rebuild() {
	s.dead = 0
	if s.big {
		r := &s.radix
		r.b[0] = s.live(r.b[0][:0], r.b[0][r.head:])
		r.head, r.n, r.full = 0, len(r.b[0]), 0
		for i := 1; i < len(r.b); i++ {
			r.b[i] = s.live(r.b[i][:0], r.b[i])
			if len(r.b[i]) > 0 {
				r.n += len(r.b[i])
				r.full |= 1 << i
			}
		}
		if r.n < toHeap {
			s.toHeap()
		}
		return
	}
	src := s.events
	if s.spent {
		src = src[1:] // its slot was released when it fired
	}
	s.events, s.spent = s.live(s.events[:0], src), false
	s.events.init()
}

// live appends src's live entries to dst, which may share src's array
// no further on, and releases the dead ones' slots.
func (s *Sim) live(dst, src []event) []event {
	for _, e := range src {
		if s.isDead(e) {
			s.release(e.slot())
			continue
		}
		dst = append(dst, e)
	}
	return dst
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
// when no live event is left. A cancelled or rescheduled entry that
// reaches the front is dropped on the way: it does not move the clock
// and does not count as fired. A heap keeps the event in the root slot
// while its callback runs, for the callback's first post to take over;
// the next Step drops it if a callback panicked before it was taken
// over. A radix heap has no root to take over and takes the event out
// first.
func (s *Sim) Step() bool {
	if s.spent {
		s.spent = false
		s.pop()
	}
	for s.entries() > 0 {
		var e event
		if s.big {
			e = s.radix.min()
		} else {
			e = s.events[0]
		}
		sl := s.release(e.slot())
		if sl.t != nil {
			if sl.t.seq != e.seq() {
				s.dead--
				s.pop()
				continue
			}
			sl.t.seq = 0 // fired: Cancel is a no-op, Reset posts anew
		}
		s.now = e.time()
		s.fired++
		if s.big {
			s.pop()
		} else {
			s.spent = true
		}
		sl.fn()
		if s.spent {
			s.spent = false
			s.pop()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stopped = true }
