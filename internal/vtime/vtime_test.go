package vtime

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.at(3, func() { got = append(got, 3) })
	s.at(1, func() { got = append(got, 1) })
	s.at(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.at(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.at(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.at(1, func() { fired = true })
	tm.Cancel()
	if tm.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

// queued is the number of live events: the queue less its dead
// entries and the slot of the event that is firing, while its callback
// has posted nothing yet.
func queued(s *Sim) int {
	if s.spent {
		return s.entries() - s.dead - 1
	}
	return s.entries() - s.dead
}

func TestPendingCountsLiveEvents(t *testing.T) {
	s := New(1)
	a := s.at(1, func() {})
	s.at(2, func() {})
	if n := queued(s); n != 2 {
		t.Fatalf("queued = %d, want 2", n)
	}
	a.Cancel()
	if n := queued(s); n != 1 {
		t.Fatalf("queued = %d after cancel, want 1", n)
	}
	s.at(3, func() {
		if n := queued(s); n != 0 {
			t.Errorf("queued = %d inside the last callback, want 0", n)
		}
		s.Post(1, func() {})
		if n := queued(s); n != 1 {
			t.Errorf("queued = %d after the callback posted, want 1", n)
		}
	})
	s.Run()
	if n := queued(s); n != 0 || s.entries() != 0 {
		t.Fatalf("queued = %d (%d entries) after Run, want 0", n, s.entries())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.at(5, func() {})
	})
	s.Run()
}

// A NaN time compares false with everything, so a `t < now` guard let
// it through, its bits sorted it after +Inf, and firing it set the
// clock to NaN, after which no past-time check could fire again. It
// panics like the past does, whichever way it is scheduled, and leaves
// the queue as it was.
func TestSchedulingAtNaNPanics(t *testing.T) {
	nan := math.NaN()
	for name, schedule := range map[string]func(s *Sim){
		"PostAt": func(s *Sim) { s.PostAt(Time(nan), func() {}) },
		"Post":   func(s *Sim) { s.Post(nan, func() {}) },
		"After":  func(s *Sim) { s.After(nan, func() {}) },
		"Reset":  func(s *Sim) { s.NewTimer(func() {}).Reset(nan) },
	} {
		s := New(1)
		fired := 0
		s.at(10, func() {
			fired++
			defer func() {
				if recover() == nil {
					t.Errorf("%s: scheduling at NaN should panic", name)
				}
			}()
			schedule(s)
		})
		s.at(20, func() { fired++ })
		s.Run()
		if fired != 2 || s.Now() != 20 {
			t.Errorf("%s: fired %d, clock %v; want 2 events and the clock at 20", name, fired, s.Now())
		}
	}
}

// Fired counts the events that ran: a cancelled one never does, and a
// Run resumed after Stop keeps counting.
func TestFiredCountsEventsRun(t *testing.T) {
	s := New(1)
	s.at(1, func() { s.Stop() })
	s.at(2, func() {}).Cancel()
	s.PostAt(3, func() { s.Post(1, func() {}) })
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d before Run", s.Fired())
	}
	s.Run()
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d at Stop, want 1", s.Fired())
	}
	s.Run()
	if s.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3 (the cancelled event never ran)", s.Fired())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	s.at(1, func() { count++; s.Stop() })
	s.at(2, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt Run: count = %d", count)
	}
	s.Run() // resumes
	if count != 2 {
		t.Fatalf("second Run did not resume: count = %d", count)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		var out []float64
		var tick func()
		tick = func() {
			out = append(out, float64(s.Now()), s.Rand().Float64())
			if len(out) < 100 {
				s.After(s.Rand().Float64(), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// Property: for any batch of events with arbitrary times, execution
// order is sorted by time with FIFO tie-break, and the clock ends at
// the max scheduled time.
func TestOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		s := New(1)
		var fired []Time
		for _, raw := range times {
			at := Time(raw % 100)
			s.at(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The queue against a sorted model. Events are scheduled with and
// without a handle, cancelled and reset, from outside Step and from
// inside callbacks, which post zero, one or several successors (some
// at the current time), reset their own timer or another (now and then
// hundreds of times over, which rebuilds the queue mid-callback),
// cancel the next-due timer or the one in the last entry, or stop the
// run. Every event that fires must be the model's earliest live event
// by (time, scheduling order), whatever shape the queue took on the
// way and whether or not the firing event still held the root slot. A
// cancelled or rescheduled entry never fires, never moves the clock
// and never counts in Fired, and Step reports an empty queue when only
// such entries are left.
//
// The heap shape keeps the queue a heap. In the radix shape it swells
// past toRadix and ebbs below toHeap again and again, so every step
// above runs in both forms and across the switches, then ends with
// only dead entries above toRadix, whose pops carry the radix heap's
// last time past the clock, and with a second swell after them.
func TestQueueMatchesSortedModel(t *testing.T) {
	type planned struct {
		at      Time
		seq, id int
	}
	order := func(a, b planned) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	}
	for _, shape := range []struct {
		name           string
		seeds          int64
		initial, total int  // events scheduled before the first Run, and in all
		tide           bool // callbacks swell the queue past toRadix and let it ebb below toHeap
		dead           int  // events scheduled and cancelled at the end
	}{
		{"heap", 20, 200, 2000, false, 5},
		{"radix", 4, toRadix + 200, 30000, true, toRadix + 200},
	} {
		for seed := int64(1); seed <= shape.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := New(seed)
			var (
				model    []planned // every pending event, in firing order
				byID     = map[int]planned{}
				timers   []*Timer // by id; nil for an event posted without a handle
				handles  []int    // the ids that have a timer
				ids      = map[*Timer]int{}
				seq      int
				fired    int
				lastAt   Time
				stopAt   = -1
				swell    = true
				switches int // between forms, seen from callbacks
				wasBig   bool
				fire     func(id int)
			)
			unplan := func(id int) {
				if p, ok := byID[id]; ok {
					i, _ := slices.BinarySearchFunc(model, p, order)
					model = slices.Delete(model, i, i+1)
					delete(byID, id)
				}
			}
			plan := func(id int, at Time) {
				unplan(id)
				seq++
				p := planned{at, seq, id}
				i, _ := slices.BinarySearchFunc(model, p, order)
				model = slices.Insert(model, i, p)
				byID[id] = p
			}
			// earliest is the model's next event, among the timers only if
			// asked.
			earliest := func(timersOnly bool) (int, bool) {
				for _, p := range model {
					if !timersOnly || timers[p.id] != nil {
						return p.id, true
					}
				}
				return 0, false
			}
			// delay is mostly near, often now, now and then far.
			delay := func() Time {
				if rng.Intn(10) == 0 {
					return Time(rng.Float64() * 300)
				}
				return Time(rng.Intn(5)) + Time(rng.Intn(3))/4
			}
			schedule := func(at Time) {
				id := len(timers)
				fn := func() { fire(id) }
				plan(id, at)
				if rng.Intn(2) == 0 {
					timers = append(timers, nil)
					s.PostAt(at, fn)
					return
				}
				tm := s.at(at, fn)
				timers = append(timers, tm)
				handles = append(handles, id)
				ids[tm] = id
			}
			reset := func(id int) {
				d := delay()
				timers[id].Reset(float64(d))
				plan(id, s.Now()+d)
			}
			cancel := func(id int) {
				timers[id].Cancel()
				unplan(id)
			}
			fire = func(id int) {
				if s.big != wasBig {
					wasBig = s.big
					switches++
				}
				want, ok := earliest(false)
				if !ok || want != id {
					t.Fatalf("%s seed %d: event %d fired id %d (%v), model id %d (%v), now %v", shape.name, seed, fired, id, byID[id], want, byID[want], s.Now())
				}
				if s.Now() != byID[id].at {
					t.Fatalf("%s seed %d: id %d fired at %v, planned at %v", shape.name, seed, id, s.Now(), byID[id].at)
				}
				unplan(id)
				fired++
				lastAt = s.Now()
				if s.Fired() != uint64(fired) {
					t.Fatalf("%s seed %d: Fired = %d at the model's event %d", shape.name, seed, s.Fired(), fired)
				}
				if tm := timers[id]; tm != nil && tm.Pending() {
					t.Fatalf("%s seed %d: id %d is pending while it fires", shape.name, seed, id)
				}
				if queued(s) != len(model) {
					t.Fatalf("%s seed %d: %d queued while id %d fires, model has %d", shape.name, seed, queued(s), id, len(model))
				}
				more := len(timers) < shape.total
				if shape.tide {
					if len(model) > toRadix+300 {
						swell = false
					} else if len(model) < toHeap-100 {
						swell = true
					}
					for n := rng.Intn(4); swell && more && n > 0; n-- {
						schedule(s.Now() + delay())
					}
				}
				switch rng.Intn(10) {
				case 0: // post nothing
				case 1, 2, 3, 4: // one successor
					if more {
						schedule(s.Now() + delay())
					}
				case 5: // several
					for n := 2 + rng.Intn(3); more && n > 0; n-- {
						schedule(s.Now() + delay())
					}
				case 6: // reset the firing timer, or another, once or in a burst
					n := 1
					if rng.Intn(8) == 0 {
						n = rng.Intn(6 * rebuildSlack)
					}
					if timers[id] != nil && rng.Intn(2) == 0 {
						for ; n > 0; n-- {
							reset(id)
						}
					} else if len(handles) > 0 {
						victim := handles[rng.Intn(len(handles))]
						for ; n > 0; n-- {
							reset(victim)
						}
					}
				case 7: // cancel the next-due timer, or a burst of them, which leaves
					// the next callback's first post to rebuild under the spent root
					n := 1
					if rng.Intn(8) == 0 {
						n = rng.Intn(3 * rebuildSlack)
					}
					for ; n > 0; n-- {
						if next, ok := earliest(true); ok {
							cancel(next)
						}
					}
				case 8: // cancel the timer of the last entry if that entry is its schedule
					// (the firing entry's slot is released, so it never is)
					if last, ok := lastEntry(s); ok {
						if tm := s.slots[last.slot()].t; tm != nil && tm.seq == last.seq() {
							cancel(ids[tm])
						}
					}
				case 9:
					s.Stop()
					stopAt = fired
				}
				if queued(s) != len(model) {
					t.Fatalf("%s seed %d: %d queued after id %d's callback, model has %d", shape.name, seed, queued(s), id, len(model))
				}
			}
			drain := func() {
				if queued(s) != len(model) {
					t.Fatalf("%s seed %d: %d queued, model has %d", shape.name, seed, queued(s), len(model))
				}
				for {
					stopAt = -1
					s.Run()
					if stopAt < 0 {
						break
					}
					if fired != stopAt {
						t.Fatalf("%s seed %d: Run fired %d events after Stop", shape.name, seed, fired-stopAt)
					}
				}
				if len(model) != 0 || s.entries() != 0 {
					t.Fatalf("%s seed %d: Run returned with %d entries queued, model has %d", shape.name, seed, s.entries(), len(model))
				}
				if s.Now() != lastAt || s.Fired() != uint64(fired) {
					t.Fatalf("%s seed %d: clock %v and Fired %d at the end, want %v and %d", shape.name, seed, s.Now(), s.Fired(), lastAt, fired)
				}
			}

			for len(timers) < shape.initial {
				schedule(Time(rng.Intn(50)) + delay())
				if len(handles) > 0 {
					switch victim := handles[rng.Intn(len(handles))]; rng.Intn(4) {
					case 0:
						cancel(victim)
					case 1:
						reset(victim)
					}
				}
			}
			drain()
			if shape.tide && switches < 4 {
				t.Fatalf("%s seed %d: the queue switched forms %d times, want twice each way", shape.name, seed, switches)
			}

			// Only dead entries left: Step finds nothing to fire.
			var doomed []*Timer
			for i := 1; i <= shape.dead; i++ {
				doomed = append(doomed, s.at(s.Now()+Time(i), func() { t.Fatalf("%s seed %d: a cancelled event fired", shape.name, seed) }))
				tm := s.NewTimer(func() { t.Fatalf("%s seed %d: a rescheduled event fired", shape.name, seed) })
				tm.Reset(float64(i))
				tm.Reset(float64(2 * i))
				doomed = append(doomed, tm)
			}
			if big := s.big; big != (shape.dead >= toRadix) {
				t.Fatalf("%s seed %d: %d dead entries in radix form: %v", shape.name, seed, s.entries(), big)
			}
			for _, tm := range doomed {
				tm.Cancel()
			}
			if s.Step() || s.Now() != lastAt || s.Fired() != uint64(fired) || s.entries() != 0 {
				t.Fatalf("%s seed %d: Step over dead entries: clock %v, Fired %d, %d entries left", shape.name, seed, s.Now(), s.Fired(), s.entries())
			}

			// The clock did not move over them, though dropping them in
			// radix form moved the radix heap's last time: a queue as
			// large again, spread past their times, fires in order.
			for range shape.dead {
				schedule(s.Now() + Time(rng.Float64()*float64(3*shape.dead)))
			}
			drain()
		}
	}
}

// lastEntry is the entry stored last: the heap's last slot, or the last
// of the radix heap's highest non-empty bucket.
func lastEntry(s *Sim) (event, bool) {
	if !s.big {
		if len(s.events) == 0 {
			return event{}, false
		}
		return s.events[len(s.events)-1], true
	}
	r := &s.radix
	for i := len(r.b) - 1; i >= 0; i-- {
		if b := r.b[i]; len(b) > 0 && (i > 0 || r.head < len(b)) {
			return b[len(b)-1], true
		}
	}
	return event{}, false
}

// A callback that panics leaves its entry at the root of a heap; the
// next Step drops it instead of firing it again. A radix heap took it
// out before the callback ran. A sequence number that would wrap panics
// instead.
func TestQueueAfterPanics(t *testing.T) {
	for _, later := range []int{1, toRadix} {
		s := New(1)
		ran := 0
		s.PostAt(1, func() { panic("boom") })
		for i := 0; i < later; i++ {
			s.PostAt(Time(2+i), func() { ran++ })
		}
		if s.big != (later >= toRadix) {
			t.Fatalf("%d events after the panic: radix form %v", later, s.big)
		}
		func() {
			defer func() { recover() }()
			s.Step()
		}()
		s.Run()
		if ran != later || s.Now() != Time(1+later) || s.entries() != 0 {
			t.Fatalf("after a panicking callback: ran %d of %d, clock %v, %d entries left", ran, later, s.Now(), s.entries())
		}
	}
	s := New(1)
	s.seq = maxSeq
	defer func() {
		if recover() == nil {
			t.Fatal("posting past the last sequence number did not panic")
		}
	}()
	s.Post(1, func() {})
}

func TestResetReusesAFiredOrCancelledTimer(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.NewTimer(func() { n++ })
	if tm.Pending() || queued(s) != 0 {
		t.Fatal("a new timer is not scheduled")
	}
	tm.Reset(5)
	if !tm.Pending() {
		t.Fatal("after Reset(5): not pending")
	}
	tm.Reset(2) // replaces the schedule, does not add one
	s.Run()
	if n != 1 || s.Now() != 2 || tm.Pending() {
		t.Fatalf("fired %d times, now %v, pending %v; want once at 2", n, s.Now(), tm.Pending())
	}
	tm.Reset(1)
	tm.Cancel()
	tm.Reset(3)
	s.Run()
	if n != 2 || s.Now() != 5 || tm.Pending() {
		t.Fatalf("fired %d times, now %v, pending %v; want twice, at 5, not pending", n, s.Now(), tm.Pending())
	}
}

// BenchmarkStepPostsOne is the queue in the shape a simulation keeps
// it: about 70 events pending, and every event that fires posts one
// successor (93.6 % of the events of a paper pass post at least one).
// One op is one Step.
func BenchmarkStepPostsOne(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	var next func()
	next = func() { s.Post(rng.Float64(), next) }
	for i := 0; i < 70; i++ {
		s.Post(rng.Float64(), next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkStepPostsOneDeep is BenchmarkStepPostsOne with the queue as
// deep as a 2 000-node world keeps it: 5 000 events pending, so the
// queue is a radix heap. Seven posts in eight are near-term, the eighth
// is up to a hundred times further out, so most of the pending events
// are far ones. One op is one Step.
func BenchmarkStepPostsOneDeep(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	var next func()
	next = func() {
		d := rng.Float64()
		if rng.Intn(8) == 0 {
			d *= 100
		}
		s.Post(d, next)
	}
	for i := 0; i < 5000; i++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// Resetting a pending timer leaves a dead entry behind, so a timer
// reset over and over between two Steps would grow the queue without
// bound if post did not rebuild it: it stays under twice its live
// entries plus the slack.
func TestResetWhilePendingBoundsQueue(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	s.Post(5, func() {})
	for i := 0; i < 1000000; i++ {
		tm.Reset(float64(i % 7))
		if live := queued(s); live != 2 || s.entries() > 2*live+rebuildSlack || len(s.slots) > 2*live+rebuildSlack+1 {
			t.Fatalf("reset %d: %d entries in %d slots for %d live events", i, s.entries(), len(s.slots), live)
		}
	}
	s.Run()
	if fired != 1 || s.Fired() != 2 || s.Now() != 5 || s.entries() != 0 {
		t.Fatalf("fired %d, Fired %d, clock %v, %d entries left; want the timer once, 2 events, clock 5, none left",
			fired, s.Fired(), s.Now(), s.entries())
	}
}

// BenchmarkStepResetsTimer is the queue as the simulator's leaf and
// retry chains use it: about 70 events pending, each a timer that
// resets itself when it fires, so every post goes through a handle.
// One op is one Step.
func BenchmarkStepResetsTimer(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 70; i++ {
		var tm *Timer
		tm = s.NewTimer(func() { tm.Reset(rng.Float64()) })
		tm.Reset(rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestNegativeZeroSortsAsZero(t *testing.T) {
	s := New(1)
	var order []string
	s.PostAt(1, func() { order = append(order, "one") })
	s.PostAt(Time(math.Copysign(0, -1)), func() { order = append(order, "zero") })
	s.Run()
	if len(order) != 2 || order[0] != "zero" {
		t.Fatalf("order %v, want zero before one", order)
	}
}
