package vtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
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
		s.At(5, func() { got = append(got, i) })
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
	s.At(10, func() {
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
	tm := s.At(1, func() { fired = true })
	tm.Cancel()
	if !tm.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	s := New(1)
	a := s.At(1, func() {})
	s.At(2, func() {})
	if n := s.Pending(); n != 2 {
		t.Fatalf("Pending = %d, want 2", n)
	}
	a.Cancel()
	if n := s.Pending(); n != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

// Fired counts the events that ran: a cancelled one never does, and a
// Run resumed after Stop keeps counting.
func TestFiredCountsEventsRun(t *testing.T) {
	s := New(1)
	s.At(1, func() { s.Stop() })
	s.At(2, func() {}).Cancel()
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
	s.At(1, func() { count++; s.Stop() })
	s.At(2, func() { count++ })
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
			s.At(at, func() { fired = append(fired, at) })
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

// The queue against a model: a random mix of At, PostAt, Cancel and
// Reset fires exactly the live events, sorted by (time, scheduling
// order) — whatever shape the heap took on the way.
func TestQueueMatchesSortedModel(t *testing.T) {
	type planned struct {
		at  Time
		seq int
		id  int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		var fired []int
		live := map[int]planned{}
		timers := map[int]*Timer{}
		seq := 0
		for id := 0; id < 400; id++ {
			id := id
			at := Time(rng.Intn(50))
			fn := func() { fired = append(fired, id) }
			seq++
			live[id] = planned{at, seq, id}
			if rng.Intn(2) == 0 {
				s.PostAt(at, fn)
			} else {
				timers[id] = s.At(at, fn)
			}
			// Cancel or reschedule one of the timers so far.
			for victim, tm := range timers {
				switch rng.Intn(4) {
				case 0:
					tm.Cancel()
					delete(live, victim)
					delete(timers, victim)
				case 1:
					d := float64(rng.Intn(50))
					tm.Reset(d)
					seq++
					live[victim] = planned{Time(d), seq, victim}
				}
				break
			}
		}
		var want []planned
		for _, p := range live {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if s.Pending() != len(want) {
			t.Fatalf("seed %d: %d pending, model has %d", seed, s.Pending(), len(want))
		}
		s.Run()
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, model %d", seed, len(fired), len(want))
		}
		for i, p := range want {
			if fired[i] != p.id {
				t.Fatalf("seed %d: event %d fired id %d, model id %d", seed, i, fired[i], p.id)
			}
		}
	}
}

func TestResetReusesAFiredOrCancelledTimer(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.NewTimer(func() { n++ })
	if tm.Pending() || s.Pending() != 0 {
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
	if n != 2 || s.Now() != 5 || tm.Cancelled() {
		t.Fatalf("fired %d times, now %v, cancelled %v; want twice, at 5, not cancelled", n, s.Now(), tm.Cancelled())
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
