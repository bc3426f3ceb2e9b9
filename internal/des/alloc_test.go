package des

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/workload"
)

// stealPair builds a run of two nodes in one cluster, stopped in the
// compute phase before anything was posted: a thief held busy by a
// benchmark, so a reply's job stays on its deque, and a victim.
func stealPair(t *testing.T) (s *Sim, thief, victim *simNode) {
	t.Helper()
	s, err := newSim(Params{
		Topo:    topo.DAS2(),
		Spec:    workload.BarnesHut(100000, 1),
		Seed:    1,
		Initial: []Alloc{{Cluster: "fs0", Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.phase = phaseCompute
	thief, victim = s.order[0], s.order[1]
	thief.benching = true
	return s, thief, victim
}

// exchange sends one steal request from thief to victim and fires
// events until the attempt is back in the pool: the request's arrival,
// its handling, and the job's delivery or the refusal.
func exchange(t *testing.T, s *Sim, thief, victim *simNode) {
	s.sendSteal(thief, victim, false, false)
	out := len(s.stealPool)
	for len(s.stealPool) == out {
		if !s.k.Step() {
			t.Fatal("the steal attempt never came back")
		}
	}
}

// A warmed steal exchange allocates nothing, granted or refused: the
// attempt comes from the pool with its steps bound, and the victim's
// deque takes its next task back without growing.
func TestStealExchangeAllocFree(t *testing.T) {
	s, thief, victim := stealPair(t)
	granted := func() {
		victim.deque = append(victim.deque, simTask{work: 1}, simTask{work: 0.5})
		exchange(t, s, thief, victim)
		if len(thief.deque) != 1 || thief.deque[0].work != 1 {
			t.Fatalf("thief's deque %v after a steal, want the victim's oldest task", thief.deque)
		}
		thief.deque = thief.deque[:0]
		victim.deque = victim.deque[:0]
	}
	refused := func() { exchange(t, s, thief, victim) }
	for name, round := range map[string]func(){"granted": granted, "refused": refused} {
		round() // warm: the pool's attempt, the deques' arrays
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("a %s steal exchange allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// A steal takes the victim's oldest task and keeps its deque's
// capacity: cutting the front off the slice would shrink the array
// under it by one task a steal, and the victim's next split would grow
// a new one.
func TestStealKeepsVictimDequeCapacity(t *testing.T) {
	s, thief, victim := stealPair(t)
	victim.deque = append(make([]simTask, 0, 8), simTask{work: 4}, simTask{work: 2}, simTask{work: 1})
	exchange(t, s, thief, victim)
	if got := thief.deque; len(got) != 1 || got[0].work != 4 {
		t.Fatalf("thief's deque %v, want the victim's oldest task", got)
	}
	if got := victim.deque; len(got) != 2 || got[0].work != 2 || got[1].work != 1 {
		t.Fatalf("victim's deque %v after the steal, want the two newer tasks in order", got)
	}
	if c := cap(victim.deque); c != 8 {
		t.Errorf("victim's deque capacity %d after a steal, want 8", c)
	}
}
