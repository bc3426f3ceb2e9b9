package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func homogeneous(n int, overhead float64) []NodeStats {
	stats := make([]NodeStats, n)
	for i := range stats {
		stats[i] = NodeStats{
			Node:    NodeID(rune('a'+i%26)) + NodeID(rune('0'+i/26)),
			Cluster: "c0",
			Speed:   10,
			Idle:    overhead,
		}
	}
	return stats
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{EMin: 0, EMax: 0.5, ClusterDropInterComm: 0.25, MinNodes: 1},
		{EMin: 0.5, EMax: 0.3, ClusterDropInterComm: 0.25, MinNodes: 1},
		{EMin: 0.3, EMax: 1.5, ClusterDropInterComm: 0.25, MinNodes: 1},
		{EMin: 0.3, EMax: 0.5, ClusterDropInterComm: 0, MinNodes: 1},
		{EMin: 0.3, EMax: 0.5, ClusterDropInterComm: 0.25, MinNodes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
		if _, err := NewEngine(c); err == nil {
			t.Errorf("case %d: NewEngine accepted invalid config", i)
		}
	}
}

func TestDecideAddsWhenEfficiencyHigh(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	// overhead 0.1 -> WAE 0.9 > EMax
	d := e.Decide(homogeneous(8, 0.1))
	if d.Action != ActionAdd {
		t.Fatalf("action = %v, want add (decision: %+v)", d.Action, d)
	}
	if d.AddCount < 1 {
		t.Errorf("AddCount = %d, want >= 1", d.AddCount)
	}
	// Growth is capped at maxGrowFactor * n.
	if d.AddCount > 8 {
		t.Errorf("AddCount = %d exceeds maxGrowFactor cap 8", d.AddCount)
	}
	// Higher efficiency must request at least as many processors.
	d2 := e.Decide(homogeneous(8, 0.45)) // WAE 0.55, barely above EMax
	if d2.Action != ActionAdd {
		t.Fatalf("action = %v, want add", d2.Action)
	}
	if d2.AddCount > d.AddCount {
		t.Errorf("lower efficiency requested more nodes: %d (WAE .55) > %d (WAE .9)",
			d2.AddCount, d.AddCount)
	}
}

func TestDecideNoneInsideBand(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	d := e.Decide(homogeneous(8, 0.6)) // WAE 0.4 in (0.3,0.5)
	if d.Action != ActionNone {
		t.Fatalf("action = %v, want none (%s)", d.Action, d.Reason)
	}
	if d.WAE < 0.39 || d.WAE > 0.41 {
		t.Errorf("WAE = %v, want 0.4", d.WAE)
	}
}

func TestDecideRemovesWhenEfficiencyLow(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	d := e.Decide(homogeneous(16, 0.85)) // WAE 0.15 < EMin
	if d.Action != ActionRemoveNodes {
		t.Fatalf("action = %v, want remove-nodes (%s)", d.Action, d.Reason)
	}
	if len(d.RemoveNodes) < 1 || len(d.RemoveNodes) >= 16 {
		t.Errorf("RemoveNodes = %d nodes, want in [1,15]", len(d.RemoveNodes))
	}
	// Lower efficiency removes at least as many.
	d2 := e.Decide(homogeneous(16, 0.72)) // WAE 0.28, barely below
	if d2.Action != ActionRemoveNodes {
		t.Fatalf("action = %v, want remove-nodes", d2.Action)
	}
	if len(d2.RemoveNodes) > len(d.RemoveNodes) {
		t.Errorf("higher efficiency removed more: %d (WAE .28) > %d (WAE .15)",
			len(d2.RemoveNodes), len(d.RemoveNodes))
	}
}

func TestDecideRemovesWorstNodesFirst(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	stats := []NodeStats{
		{Node: "fast1", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "fast2", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "fast3", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "crawl", Cluster: "A", Speed: 1, Idle: 0.8},
	}
	d := e.Decide(stats)
	if d.Action != ActionRemoveNodes {
		t.Fatalf("action = %v (%s)", d.Action, d.Reason)
	}
	if d.RemoveNodes[0] != "crawl" {
		t.Errorf("the ~10x slower node must be evicted first, got %v", d.RemoveNodes)
	}
}

func TestDecideDropsSaturatedCluster(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	var stats []NodeStats
	for i := 0; i < 8; i++ {
		stats = append(stats, NodeStats{
			Node: NodeID(rune('a' + i)), Cluster: "ok", Speed: 10, Idle: 0.6,
		})
	}
	for i := 0; i < 4; i++ {
		stats = append(stats, NodeStats{
			Node: NodeID(rune('p' + i)), Cluster: "throttled", Speed: 10,
			Idle: 0.2, InterComm: 0.75,
		})
	}
	d := e.Decide(stats)
	if d.Action != ActionRemoveCluster {
		t.Fatalf("action = %v, want remove-cluster (%s)", d.Action, d.Reason)
	}
	if d.RemoveCluster != "throttled" {
		t.Errorf("RemoveCluster = %v", d.RemoveCluster)
	}
	if len(d.RemoveNodes) != 4 {
		t.Errorf("cluster eviction should list its 4 members, got %v", d.RemoveNodes)
	}
	if d.ClusterInterComm < 0.74 {
		t.Errorf("ClusterInterComm = %v, want ~0.75", d.ClusterInterComm)
	}
}

func TestDecideNeverDropsOnlyCluster(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	var stats []NodeStats
	for i := 0; i < 4; i++ {
		stats = append(stats, NodeStats{
			Node: NodeID(rune('a' + i)), Cluster: "only", Speed: 10,
			Idle: 0.2, InterComm: 0.7,
		})
	}
	d := e.Decide(stats)
	if d.Action == ActionRemoveCluster {
		t.Fatalf("must not evacuate the only cluster: %+v", d)
	}
}

func TestDecideRespectsMinNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinNodes = 4
	e := mustEngine(t, cfg)
	d := e.Decide(homogeneous(4, 0.95))
	if d.Action != ActionNone {
		t.Fatalf("at MinNodes the engine must hold: %+v", d)
	}
	d = e.Decide(homogeneous(6, 0.95))
	if d.Action != ActionRemoveNodes {
		t.Fatalf("action = %v", d.Action)
	}
	if len(d.RemoveNodes) > 2 {
		t.Errorf("removed %d nodes, would violate MinNodes=4", len(d.RemoveNodes))
	}
}

func TestDecideBootstrapsFromZeroNodes(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	d := e.Decide(nil)
	if d.Action != ActionAdd || d.AddCount != 1 {
		t.Fatalf("empty stats should bootstrap with one node: %+v", d)
	}
}

func TestGrowShrinkCounts(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	// WAE 0.8 on 10 nodes, target 0.4: ideal 20 -> add 10 (== cap).
	if got := e.GrowCount(10, 0.8); got != 10 {
		t.Errorf("GrowCount(10, .8) = %d, want 10", got)
	}
	// WAE 0.52, barely above: ideal 13 -> add 3.
	if got := e.GrowCount(10, 0.52); got != 3 {
		t.Errorf("GrowCount(10, .52) = %d, want 3", got)
	}
	if got := e.GrowCount(0, 0.9); got != 1 {
		t.Errorf("GrowCount(0, .9) = %d, want 1", got)
	}
	// WAE 0.2 on 10 nodes: ideal 5 -> remove 5.
	if got := e.ShrinkCount(10, 0.2); got != 5 {
		t.Errorf("ShrinkCount(10, .2) = %d, want 5", got)
	}
	if got := e.ShrinkCount(1, 0.1); got != 0 {
		t.Errorf("ShrinkCount(1, .1) = %d, want 0 (MinNodes)", got)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActionNone:          "none",
		ActionAdd:           "add",
		ActionRemoveNodes:   "remove-nodes",
		ActionRemoveCluster: "remove-cluster",
		Action(99):          "Action(99)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}

// Property: the decision's action always agrees with where WAE sits
// relative to the thresholds, and removals never empty the computation.
func TestDecideConsistencyProperty(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	f := func(seed int64, nRaw uint8, clustersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		nc := int(clustersRaw%5) + 1
		stats := make([]NodeStats, n)
		for i := range stats {
			idle := rng.Float64()
			inter := rng.Float64() * (1 - idle)
			stats[i] = NodeStats{
				Node:      NodeID(string(rune('a'+i%26)) + string(rune('0'+i/26))),
				Cluster:   ClusterID(rune('A' + i%nc)),
				Speed:     1 + rng.Float64()*9,
				Idle:      idle,
				InterComm: inter,
			}
		}
		d := e.Decide(stats)
		wae := WeightedAverageEfficiency(stats)
		switch d.Action {
		case ActionAdd:
			return wae > e.Config().EMax && d.AddCount >= 1
		case ActionRemoveNodes:
			return wae < e.Config().EMin &&
				len(d.RemoveNodes) >= 1 && len(d.RemoveNodes) < n
		case ActionRemoveCluster:
			return wae < e.Config().EMin && len(d.RemoveNodes) < n
		case ActionNone:
			return wae >= e.Config().EMin-1e-12 && wae <= e.Config().EMax+1e-12 ||
				n == e.Config().MinNodes
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
