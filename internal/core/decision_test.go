package core

import (
	"math/rand"
	"strings"
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

func mustBatch(t *testing.T, cfg Config) *BatchWAE {
	t.Helper()
	b, err := NewBatchWAE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// homogeneous is n equally fast nodes of one cluster, each with the
// given overhead.
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

// The TestDecide* tests check the band's decisions on the parts the
// coordinator calls: a fleet's WAE, BatchWAE.Judge's verdict and count,
// Explain's reason and RankNodes' victim order. internal/coord's
// TestDecisionGolden pins whole decisions, cluster eviction and
// bootstrap included, on the coordinator tree.

func TestDecideAddsWhenEfficiencyHigh(t *testing.T) {
	b := mustBatch(t, DefaultConfig())
	// overhead 0.1 -> WAE 0.9 > EMax
	v, add := b.Judge(WeightedAverageEfficiency(homogeneous(8, 0.1)), 8)
	if v != VerdictGrow {
		t.Fatalf("verdict = %v, want grow", v)
	}
	// Growth is capped at maxGrowFactor * n.
	if add < 1 || add > 8 {
		t.Errorf("grow count = %d, want in [1,8]", add)
	}
	// Higher efficiency must request at least as many processors.
	v2, add2 := b.Judge(WeightedAverageEfficiency(homogeneous(8, 0.45)), 8) // WAE 0.55, barely above EMax
	if v2 != VerdictGrow {
		t.Fatalf("verdict = %v, want grow", v2)
	}
	if add2 > add {
		t.Errorf("lower efficiency requested more nodes: %d (WAE .55) > %d (WAE .9)", add2, add)
	}
}

func TestDecideNoneInsideBand(t *testing.T) {
	b := mustBatch(t, DefaultConfig())
	wae := WeightedAverageEfficiency(homogeneous(8, 0.6)) // WAE 0.4 in (0.3,0.5)
	if wae < 0.39 || wae > 0.41 {
		t.Errorf("WAE = %v, want 0.4", wae)
	}
	if v, _ := b.Judge(wae, 8); v != VerdictHold {
		t.Fatalf("verdict = %v, want hold (%s)", v, b.Explain(v, wae, 8, 0))
	}
}

func TestDecideRemovesWhenEfficiencyLow(t *testing.T) {
	b := mustBatch(t, DefaultConfig())
	v, k := b.Judge(WeightedAverageEfficiency(homogeneous(16, 0.85)), 16) // WAE 0.15 < EMin
	if v != VerdictShrink {
		t.Fatalf("verdict = %v, want shrink", v)
	}
	if k < 1 || k >= 16 {
		t.Errorf("shrink count = %d, want in [1,15]", k)
	}
	// Lower efficiency removes at least as many.
	v2, k2 := b.Judge(WeightedAverageEfficiency(homogeneous(16, 0.72)), 16) // WAE 0.28, barely below
	if v2 != VerdictShrink {
		t.Fatalf("verdict = %v, want shrink", v2)
	}
	if k2 > k {
		t.Errorf("higher efficiency removed more: %d (WAE .28) > %d (WAE .15)", k2, k)
	}
}

func TestDecideRemovesWorstNodesFirst(t *testing.T) {
	ranked := RankNodes([]NodeStats{
		{Node: "fast1", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "fast2", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "fast3", Cluster: "A", Speed: 10, Idle: 0.8},
		{Node: "crawl", Cluster: "A", Speed: 1, Idle: 0.8},
	}, DefaultBadnessWeights())
	if ranked[0].Node != "crawl" {
		t.Errorf("the ~10x slower node must be evicted first, got %+v", ranked)
	}
}

func TestDecideRespectsMinNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinNodes = 4
	b := mustBatch(t, cfg)
	wae := WeightedAverageEfficiency(homogeneous(4, 0.95))
	v, k := b.Judge(wae, 4)
	if v != VerdictShrink || k != 0 {
		t.Fatalf("at MinNodes the band must hold: verdict %v count %d", v, k)
	}
	if r := b.Explain(v, wae, 4, k); !strings.Contains(r, "already at MinNodes=4") {
		t.Errorf("reason %q does not name the floor", r)
	}
	if v, k = b.Judge(WeightedAverageEfficiency(homogeneous(6, 0.95)), 6); v != VerdictShrink || k != 2 {
		t.Errorf("verdict %v count %d, want shrink by the 2 nodes above MinNodes=4", v, k)
	}
}

// Property: the verdict always agrees with where WAE sits relative to
// the thresholds, a grow asks for at least one node, and a shrink
// never takes the computation below MinNodes.
func TestDecideConsistencyProperty(t *testing.T) {
	b := mustBatch(t, DefaultConfig())
	cfg := b.Engine().Config()
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		stats := make([]NodeStats, n)
		for i := range stats {
			idle := rng.Float64()
			stats[i] = NodeStats{
				Node:      NodeID(string(rune('a'+i%26)) + string(rune('0'+i/26))),
				Cluster:   "A",
				Speed:     1 + rng.Float64()*9,
				Idle:      idle,
				InterComm: rng.Float64() * (1 - idle),
			}
		}
		wae := WeightedAverageEfficiency(stats)
		v, k := b.Judge(wae, n)
		switch v {
		case VerdictGrow:
			return wae > cfg.EMax && k >= 1
		case VerdictShrink:
			return wae < cfg.EMin && n-k >= cfg.MinNodes && (k >= 1 || n == cfg.MinNodes)
		case VerdictHold:
			return wae >= cfg.EMin && wae <= cfg.EMax
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
