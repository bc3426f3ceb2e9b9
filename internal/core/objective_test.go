package core

import "testing"

// TestBatchWAEJudgeMatchesBand: the verdict mapping agrees with the
// band comparison and the engine's step sizes.
func TestBatchWAEJudgeMatchesBand(t *testing.T) {
	cfg := DefaultConfig()
	obj, _ := NewBatchWAE(cfg)
	eng := obj.Engine()
	for _, tc := range []struct {
		health float64
		n      int
		want   Verdict
	}{
		{cfg.EMax + 0.1, 10, VerdictGrow},
		{cfg.EMin - 0.1, 10, VerdictShrink},
		{(cfg.EMin + cfg.EMax) / 2, 10, VerdictHold},
	} {
		v, cnt := obj.Judge(tc.health, tc.n)
		if v != tc.want {
			t.Fatalf("health %.2f: verdict %v, want %v", tc.health, v, tc.want)
		}
		switch v {
		case VerdictGrow:
			if cnt != eng.GrowCount(tc.n, tc.health) {
				t.Fatalf("grow count %d != engine %d", cnt, eng.GrowCount(tc.n, tc.health))
			}
		case VerdictShrink:
			if cnt != eng.ShrinkCount(tc.n, tc.health) {
				t.Fatalf("shrink count %d != engine %d", cnt, eng.ShrinkCount(tc.n, tc.health))
			}
		}
	}
}

func TestObjectiveTraits(t *testing.T) {
	b, _ := NewBatchWAE(DefaultConfig())
	if tr := b.Traits(); !tr.BlacklistVictims || !tr.ClusterEviction {
		t.Fatalf("batch traits %+v: want blacklist and cluster eviction", tr)
	}
	s, _ := NewStreamSLO(StreamSLOConfig{TargetLatency: 5})
	if tr := s.Traits(); tr.BlacklistVictims || tr.ClusterEviction {
		t.Fatalf("stream traits %+v: capacity shrink must not blacklist or evict clusters", tr)
	}
}

func TestStreamObsMerge(t *testing.T) {
	a := StreamObs{Arrived: 3, Completed: 2, LatencySum: 1.5, Backlog: 4}
	a.Merge(StreamObs{Arrived: 1, Completed: 2, LatencySum: 0.5, Backlog: 1})
	want := StreamObs{Arrived: 4, Completed: 4, LatencySum: 2.0, Backlog: 5}
	if a != want {
		t.Fatalf("merged %+v, want %+v", a, want)
	}
	if m := a.MeanLatency(); m != 0.5 {
		t.Fatalf("mean %v, want 0.5", m)
	}
	if m := (StreamObs{}).MeanLatency(); m != 0 {
		t.Fatalf("empty mean %v, want 0", m)
	}
}

// TestStreamHealthEdges pins the health scalar's boundary behaviour:
// idle periods are healthy, stalled ones are dead, and nearly-instant
// latencies saturate at the cap instead of recording +Inf.
func TestStreamHealthEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		obs  StreamObs
		want float64
	}{
		{"idle", StreamObs{}, 1},
		{"stalled backlog", StreamObs{Backlog: 5}, 0},
		{"stalled arrivals", StreamObs{Arrived: 3}, 0},
		{"on target", StreamObs{Completed: 2, LatencySum: 10}, 1},
		{"half target", StreamObs{Completed: 1, LatencySum: 10}, 0.5},
		{"double target", StreamObs{Completed: 4, LatencySum: 10}, 2},
		{"instant caps", StreamObs{Completed: 1, LatencySum: 1e-9}, maxStreamHealth},
		{"zero latency caps", StreamObs{Completed: 1, LatencySum: 0}, maxStreamHealth},
	} {
		if got := StreamHealth(tc.obs, 5); got != tc.want {
			t.Errorf("%s: health %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStreamSLOConfigValidate(t *testing.T) {
	good := StreamSLOConfig{TargetLatency: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*StreamSLOConfig){
		"zero target": func(c *StreamSLOConfig) { c.TargetLatency = 0 },
	} {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := NewStreamSLO(c); err == nil {
			t.Errorf("%s: constructor accepted", name)
		}
	}
}

// TestStreamSLOJudgeHysteresis walks the calm counter through its whole
// state machine: shrink only after shrinkAfter consecutive calm
// periods, any violation or dead-band period resets the count, and the
// streamMinNodes floor blocks the release without consuming the calm streak's
// decision.
func TestStreamSLOJudgeHysteresis(t *testing.T) {
	cfg := StreamSLOConfig{TargetLatency: 5}
	s, _ := NewStreamSLO(cfg)
	calm, mid, bad := 3.0, 1.5, 0.5 // calm: 3*0.5>1; mid: dead band; bad: SLO violated

	// Three calm periods: no shrink yet.
	for i := 0; i < 3; i++ {
		if v, _ := s.Judge(calm, 8); v != VerdictHold {
			t.Fatalf("calm period %d: verdict %v, want hold", i, v)
		}
	}
	// A dead-band period resets the streak...
	if v, _ := s.Judge(mid, 8); v != VerdictHold {
		t.Fatal("dead band must hold")
	}
	// ...so three more calm periods still do not shrink.
	for i := 0; i < 3; i++ {
		if v, _ := s.Judge(calm, 8); v != VerdictHold {
			t.Fatalf("calm after reset %d: want hold", i)
		}
	}
	// The fourth consecutive calm period releases exactly one node.
	if v, cnt := s.Judge(calm, 8); v != VerdictShrink || cnt != 1 {
		t.Fatalf("4th calm: verdict %v count %d, want shrink 1", v, cnt)
	}
	// The shrink consumed the streak: the next calm period holds again.
	if v, _ := s.Judge(calm, 8); v != VerdictHold {
		t.Fatal("post-shrink calm must restart the streak")
	}
	// A violation resets the streak too.
	for i := 0; i < 3; i++ {
		s.Judge(calm, 8)
	}
	if v, _ := s.Judge(bad, 8); v != VerdictGrow {
		t.Fatal("violation must grow")
	}
	for i := 0; i < 3; i++ {
		if v, _ := s.Judge(calm, 8); v != VerdictHold {
			t.Fatalf("calm after violation %d: want hold", i)
		}
	}
	// At the streamMinNodes floor the release is blocked.
	s2, _ := NewStreamSLO(cfg)
	for i := 0; i < 10; i++ {
		if v, cnt := s2.Judge(calm, streamMinNodes); v != VerdictHold || cnt != 0 {
			t.Fatalf("at floor: verdict %v count %d, want hold 0", v, cnt)
		}
	}
}

// TestStreamSLOGrowProportional: the grow step tracks the latency
// overshoot and is capped by maxGrowFactor.
func TestStreamSLOGrowProportional(t *testing.T) {
	s, _ := NewStreamSLO(StreamSLOConfig{TargetLatency: 5})
	// health 0.5 = latency at 2x target: ask for ~n more.
	if v, cnt := s.Judge(0.5, 4); v != VerdictGrow || cnt != 4 {
		t.Fatalf("2x overshoot on 4: %v %d, want grow 4", v, cnt)
	}
	// health 0.8 on 4 nodes: round(4*0.25) = 1.
	if v, cnt := s.Judge(0.8, 4); v != VerdictGrow || cnt != 1 {
		t.Fatalf("1.25x overshoot on 4: %v %d, want grow 1", v, cnt)
	}
	// A stalled pipeline (health 0) is capped by the factor, not by the
	// fictitious infinite overshoot.
	if v, cnt := s.Judge(0, 6); v != VerdictGrow || cnt != 6 {
		t.Fatalf("stall on 6: %v %d, want grow 6", v, cnt)
	}
	// Zero nodes bootstraps with one.
	if v, cnt := s.Judge(0, 0); v != VerdictGrow || cnt != 1 {
		t.Fatalf("bootstrap: %v %d, want grow 1", v, cnt)
	}
}

// TestStreamSLOReboundFloor: a violation chasing a release teaches the
// objective a capacity floor — the same level is never probed twice, so
// the loop cannot cycle release/violate/re-grow (the oscillation the
// chaos corpus's no-oscillation invariant watches for).
func TestStreamSLOReboundFloor(t *testing.T) {
	cfg := StreamSLOConfig{TargetLatency: 5}
	s, _ := NewStreamSLO(cfg)
	calm, bad := 3.0, 0.5

	shrinkAt := func(n int) {
		t.Helper()
		for i := 0; i < shrinkAfter-1; i++ {
			if v, _ := s.Judge(calm, n); v != VerdictHold {
				t.Fatalf("calm %d: verdict %v, want hold", i, v)
			}
		}
		if v, cnt := s.Judge(calm, n); v != VerdictShrink || cnt != 1 {
			t.Fatalf("verdict %v count %d, want shrink 1", v, cnt)
		}
	}
	shrinkAt(2)
	// The violation lands one judged period after the release: rebound.
	if v, _ := s.Judge(bad, 1); v != VerdictGrow {
		t.Fatal("rebound violation must grow")
	}
	// Back at 2 nodes: the learned floor blocks every further release.
	for i := 0; i < 3*shrinkAfter; i++ {
		if v, cnt := s.Judge(calm, 2); v != VerdictHold || cnt != 0 {
			t.Fatalf("probe %d after rebound: verdict %v count %d, want hold", i, v, cnt)
		}
	}
	// A larger fleet may still release down to (not through) the floor.
	s.Judge(1.5, 3) // dead band: restart the calm streak
	shrinkAt(3)

	// A violation beyond the window is new load, not a rebound: no floor.
	s2, _ := NewStreamSLO(cfg)
	for i := 0; i < shrinkAfter-1; i++ {
		s2.Judge(calm, 2)
	}
	if v, _ := s2.Judge(calm, 2); v != VerdictShrink {
		t.Fatal("setup shrink missing")
	}
	for i := 0; i < reboundWindow+1; i++ {
		s2.Judge(calm, 1)
	}
	if v, _ := s2.Judge(bad, 1); v != VerdictGrow {
		t.Fatal("late violation must grow")
	}
	for i := 0; i < shrinkAfter-1; i++ {
		s2.Judge(calm, 2)
	}
	if v, _ := s2.Judge(calm, 2); v != VerdictShrink {
		t.Fatal("no floor should have been learned from a late violation")
	}
}

// TestStreamSLOStragglerShed: a violation streak with no capacity
// growth — the pool has nothing left to grant — flips the objective
// from growing to shedding the worst node, and fresh capacity resets
// the streak.
func TestStreamSLOStragglerShed(t *testing.T) {
	cfg := StreamSLOConfig{TargetLatency: 5}
	s, _ := NewStreamSLO(cfg)
	bad := 0.5

	// Violations while capacity is still arriving: grow every time.
	for _, n := range []int{4, 6, 8} {
		if v, _ := s.Judge(bad, n); v != VerdictGrow {
			t.Fatalf("growing fleet at %d: want grow", n)
		}
	}
	// Capacity stalls at 8: stuckAfter more violations still grow...
	for i := 0; i < stuckAfter-1; i++ {
		if v, _ := s.Judge(bad, 8); v != VerdictGrow {
			t.Fatalf("stuck violation %d: want grow", i)
		}
	}
	// ...then the objective sheds one straggler per violating period.
	for i := 0; i < 3; i++ {
		if v, cnt := s.Judge(bad, 8-i); v != VerdictShed || cnt != 1 {
			t.Fatalf("shed %d: verdict %v count %d, want shed 1", i, v, cnt)
		}
	}
	// New capacity (the provisioner found a node after all): back to grow.
	if v, _ := s.Judge(bad, 9); v != VerdictGrow {
		t.Fatal("fresh capacity must reset the stuck streak")
	}

	// A calm period also resets the streak.
	s4, _ := NewStreamSLO(cfg)
	for i := 0; i < stuckAfter; i++ {
		s4.Judge(bad, 4)
	}
	s4.Judge(3.0, 4) // calm
	if v, _ := s4.Judge(bad, 4); v != VerdictGrow {
		t.Fatal("calm period must reset the stuck streak")
	}
}

// TestObjectiveHealth: the batch objective's health is the period's
// aggregate efficiency; the stream objective's is target/latency, or
// neutral in a period that brought no stream observation — the
// efficiency of the nodes says nothing about the pipeline's latency.
func TestObjectiveHealth(t *testing.T) {
	b, _ := NewBatchWAE(DefaultConfig())
	if h := b.Health(PeriodObs{Efficiency: 0.25}); h != 0.25 {
		t.Fatalf("batch health %v, want the efficiency 0.25", h)
	}
	s, _ := NewStreamSLO(StreamSLOConfig{TargetLatency: 5})
	if h := s.Health(PeriodObs{Efficiency: 0.25}); h != 1 {
		t.Fatalf("no observation: health %v, want neutral 1", h)
	}
	on := &StreamObs{Completed: 10, LatencySum: 100} // mean 10s vs target 5s
	if h := s.Health(PeriodObs{Efficiency: 0.25, Stream: on}); h != 0.5 {
		t.Fatalf("stream health %v, want 0.5", h)
	}
}

// TestObjectiveExplainStability pins the period log's wording.
func TestObjectiveExplainStability(t *testing.T) {
	b, _ := NewBatchWAE(DefaultConfig())
	if got := b.Explain(VerdictGrow, 0.61, 8, 3); got != "WAE 0.610 > EMax 0.50 on 8 nodes: request 3 more" {
		t.Fatalf("batch grow: %q", got)
	}
	s, _ := NewStreamSLO(StreamSLOConfig{TargetLatency: 5})
	if got := s.Explain(VerdictGrow, 0.500, 8, 3); got != "stream health 0.500 below SLO (target 5s) on 8 nodes: request 3 more" {
		t.Fatalf("stream grow: %q", got)
	}
	if got := s.Explain(VerdictShrink, 3.0, 8, 1); got != "stream health 3.000 calm for 4 periods on 8 nodes: release 1" {
		t.Fatalf("stream shrink: %q", got)
	}
}
