package vtime

import (
	"math"
	"math/rand"
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

// queued is the number of live events: the queue less the slot of the
// event that is firing, while its callback has posted nothing yet.
func queued(s *Sim) int {
	if s.spent {
		return len(s.events) - 1
	}
	return len(s.events)
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
	if n := queued(s); n != 0 || len(s.events) != 0 {
		t.Fatalf("queued = %d (%d slots) after Run, want 0", n, len(s.events))
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
// at the current time), reset their own timer or another, cancel the
// next-due timer or the one in the last slot, or stop the run. Every
// event that fires must be the model's earliest live event by (time,
// scheduling order), whatever shape the heap took on the way and
// whether or not the firing event still held the root slot.
func TestQueueMatchesSortedModel(t *testing.T) {
	type planned struct {
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		live := map[int]planned{} // the model: every pending event by id
		var (
			timers  []*Timer // by id; nil for an event posted without a handle
			handles []int    // the ids that have a timer
			ids     = map[*Timer]int{}
			seq     int
			fired   int
			stopAt  = -1
			fire    func(id int)
		)
		plan := func(id int, at Time) {
			seq++
			live[id] = planned{at, seq}
		}
		// earliest is the model's next event, among the timers only if
		// asked.
		earliest := func(timersOnly bool) (int, bool) {
			best, found := 0, false
			for id, p := range live {
				if timersOnly && timers[id] == nil {
					continue
				}
				if b := live[best]; !found || p.at < b.at || p.at == b.at && p.seq < b.seq {
					best, found = id, true
				}
			}
			return best, found
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
			d := float64(rng.Intn(5))
			timers[id].Reset(d)
			plan(id, s.Now()+Time(d))
		}
		cancel := func(id int) {
			timers[id].Cancel()
			delete(live, id)
		}
		fire = func(id int) {
			want, ok := earliest(false)
			if !ok || want != id {
				t.Fatalf("seed %d: event %d fired id %d, model id %d", seed, fired, id, want)
			}
			if s.Now() != live[id].at {
				t.Fatalf("seed %d: id %d fired at %v, planned at %v", seed, id, s.Now(), live[id].at)
			}
			delete(live, id)
			fired++
			if tm := timers[id]; tm != nil && tm.Pending() {
				t.Fatalf("seed %d: id %d is pending while it fires", seed, id)
			}
			if queued(s) != len(live) {
				t.Fatalf("seed %d: %d queued while id %d fires, model has %d", seed, queued(s), id, len(live))
			}
			more := len(timers) < 2000
			switch rng.Intn(10) {
			case 0: // post nothing
			case 1, 2, 3, 4: // one successor
				if more {
					schedule(s.Now() + Time(rng.Intn(5)))
				}
			case 5: // several
				for n := 2 + rng.Intn(3); more && n > 0; n-- {
					schedule(s.Now() + Time(rng.Intn(5)))
				}
			case 6: // reset the firing timer, or another
				if timers[id] != nil && rng.Intn(2) == 0 {
					reset(id)
				} else if len(handles) > 0 {
					reset(handles[rng.Intn(len(handles))])
				}
			case 7: // cancel the next-due timer
				if next, ok := earliest(true); ok {
					cancel(next)
				}
			case 8: // cancel the timer in the last slot: the firing one if it is alone
				if last := s.events[len(s.events)-1]; last.t != nil {
					cancel(ids[last.t])
				}
			case 9:
				s.Stop()
				stopAt = fired
			}
			if queued(s) != len(live) {
				t.Fatalf("seed %d: %d queued after id %d's callback, model has %d", seed, queued(s), id, len(live))
			}
		}

		for len(timers) < 200 {
			schedule(Time(rng.Intn(50)))
			if len(handles) > 0 {
				switch victim := handles[rng.Intn(len(handles))]; rng.Intn(4) {
				case 0:
					cancel(victim)
				case 1:
					reset(victim)
				}
			}
		}
		if queued(s) != len(live) {
			t.Fatalf("seed %d: %d queued, model has %d", seed, queued(s), len(live))
		}
		for {
			stopAt = -1
			s.Run()
			if stopAt < 0 {
				break
			}
			if fired != stopAt {
				t.Fatalf("seed %d: Run fired %d events after Stop", seed, fired-stopAt)
			}
		}
		if len(live) != 0 || len(s.events) != 0 {
			t.Fatalf("seed %d: Run returned with %d slots queued, model has %d", seed, len(s.events), len(live))
		}
	}
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
