package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNodeStatsOverheadClamps(t *testing.T) {
	cases := []struct {
		in   NodeStats
		want float64
	}{
		{NodeStats{Idle: 0.2, IntraComm: 0.1, InterComm: 0.05}, 0.35},
		{NodeStats{}, 0},
		{NodeStats{Idle: 0.9, IntraComm: 0.9}, 1},   // clamps above
		{NodeStats{Idle: -0.5, IntraComm: -0.5}, 0}, // clamps below
		{NodeStats{InterComm: 1.0}, 1},              // exactly one
		{NodeStats{Idle: 1.0 / 3, IntraComm: 1.0 / 3, InterComm: 1.0 / 3}, 1},
	}
	for i, c := range cases {
		if got := c.in.Overhead(); !almostEq(got, c.want) {
			t.Errorf("case %d: Overhead() = %v, want %v", i, got, c.want)
		}
	}
}

// relSpeeds is each node's relative speed by the rule
// WeightedAverageEfficiency and RankCandidates share.
func relSpeeds(stats []NodeStats) []float64 {
	var all ClusterPartial
	for _, s := range stats {
		all.addSpeed(s.Speed)
	}
	rel := make([]float64, len(stats))
	for i, s := range stats {
		rel[i] = relativeSpeed(s.Speed, all.SpeedMax, all.SpeedMin)
	}
	return rel
}

func TestRelativeSpeeds(t *testing.T) {
	t.Run("normalises to fastest", func(t *testing.T) {
		stats := []NodeStats{
			{Node: "a", Speed: 50},
			{Node: "b", Speed: 100},
			{Node: "c", Speed: 25},
		}
		rel := relSpeeds(stats)
		want := []float64{0.5, 1.0, 0.25}
		for i := range want {
			if !almostEq(rel[i], want[i]) {
				t.Errorf("rel[%d] = %v, want %v", i, rel[i], want[i])
			}
		}
	})
	t.Run("unknown speeds take slowest known", func(t *testing.T) {
		stats := []NodeStats{
			{Node: "a", Speed: 0},
			{Node: "b", Speed: 100},
			{Node: "c", Speed: 20},
		}
		rel := relSpeeds(stats)
		if !almostEq(rel[0], 0.2) {
			t.Errorf("unknown speed got rel %v, want 0.2 (slowest known)", rel[0])
		}
	})
	t.Run("all unknown is homogeneous", func(t *testing.T) {
		stats := []NodeStats{{Node: "a"}, {Node: "b"}}
		rel := relSpeeds(stats)
		if rel[0] != 1 || rel[1] != 1 {
			t.Errorf("all-unknown speeds should be 1, got %v", rel)
		}
	})
}

// meanEfficiency is the classic speed-blind parallel efficiency, the
// mean of 1 - overhead: what the coordinator judges under the
// UnweightedEfficiency ablation.
func meanEfficiency(stats []NodeStats) float64 {
	sum := 0.0
	for _, s := range stats {
		sum += 1 - s.Overhead()
	}
	return sum / float64(len(stats))
}

func TestWeightedAverageEfficiencyHomogeneousMatchesEfficiency(t *testing.T) {
	stats := []NodeStats{
		{Node: "a", Speed: 10, Idle: 0.3},
		{Node: "b", Speed: 10, InterComm: 0.1},
		{Node: "c", Speed: 10, IntraComm: 0.25},
	}
	if wae, mean := WeightedAverageEfficiency(stats), meanEfficiency(stats); !almostEq(wae, mean) {
		t.Errorf("homogeneous speeds: WAE %v != unweighted efficiency %v", wae, mean)
	}
}

func TestWeightedAverageEfficiencyPenalisesSlowNodes(t *testing.T) {
	fast := []NodeStats{
		{Node: "a", Speed: 10, Idle: 0.2},
		{Node: "b", Speed: 10, Idle: 0.2},
	}
	mixed := []NodeStats{
		{Node: "a", Speed: 10, Idle: 0.2},
		{Node: "b", Speed: 2, Idle: 0.2}, // 5x slower, same overhead
	}
	if w1, w2 := WeightedAverageEfficiency(fast), WeightedAverageEfficiency(mixed); w2 >= w1 {
		t.Errorf("slow node should lower WAE: fast=%v mixed=%v", w1, w2)
	}
	// The slow node contributes speed*(1-overhead) = 0.2*0.8 = 0.16,
	// the fast one 0.8: WAE = 0.48.
	if w := WeightedAverageEfficiency(mixed); !almostEq(w, 0.48) {
		t.Errorf("mixed WAE = %v, want 0.48", w)
	}
}

func TestWeightedAverageEfficiencyEmpty(t *testing.T) {
	if w := WeightedAverageEfficiency(nil); w != 0 {
		t.Errorf("empty WAE = %v, want 0", w)
	}
}

// Property: WAE is always within [0,1] and never exceeds the unweighted
// efficiency (speeds are <= 1 after normalisation).
func TestWAEBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%32) + 1
		stats := make([]NodeStats, n)
		for i := range stats {
			idle := rng.Float64()
			intra := rng.Float64() * (1 - idle)
			inter := rng.Float64() * (1 - idle - intra)
			stats[i] = NodeStats{
				Node:      NodeID(rune('a' + i)),
				Cluster:   ClusterID("c"),
				Speed:     rng.Float64() * 100,
				Idle:      idle,
				IntraComm: intra,
				InterComm: inter,
			}
		}
		wae := WeightedAverageEfficiency(stats)
		eff := meanEfficiency(stats)
		return wae >= 0 && wae <= 1+1e-12 && wae <= eff+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateClusters(t *testing.T) {
	stats := []NodeStats{
		{Node: "b1", Cluster: "B", Speed: 5, InterComm: 0.4, Idle: 0.1},
		{Node: "a1", Cluster: "A", Speed: 10, InterComm: 0.1},
		{Node: "a2", Cluster: "A", Speed: 10, InterComm: 0.3},
		{Node: "b2", Cluster: "B", Speed: 0, InterComm: 0.2},
	}
	parts := partials(stats)
	if len(parts) != 2 {
		t.Fatalf("got %d clusters, want 2", len(parts))
	}
	if parts[0].Cluster != "A" || parts[1].Cluster != "B" {
		t.Fatalf("clusters not in sorted order: %v %v", parts[0].Cluster, parts[1].Cluster)
	}
	a, b := parts[0], parts[1]
	if a.Stats != 2 || b.Stats != 2 {
		t.Errorf("report counts = %d,%d want 2,2", a.Stats, b.Stats)
	}
	if !almostEq(a.SpeedSum, 20) || !almostEq(b.SpeedSum, 5) {
		t.Errorf("cluster speeds = %v,%v want 20,5", a.SpeedSum, b.SpeedSum)
	}
	// b2 is unmeasured: it counts in the sum but not in the extrema.
	if a.SpeedMax != 10 || a.SpeedMin != 10 || b.SpeedMax != 5 || b.SpeedMin != 5 {
		t.Errorf("extrema = A %v..%v, B %v..%v", a.SpeedMin, a.SpeedMax, b.SpeedMin, b.SpeedMax)
	}
	if fastest, slowest := SpeedRange(parts); fastest != 10 || slowest != 5 {
		t.Errorf("SpeedRange = %v,%v want 10,5", fastest, slowest)
	}
	// Cluster badness reads the mean inter-comm and the summed speed
	// relative to the fastest cluster: A 1/1 + 100·.2, B 1/.25 + 100·.3.
	ranked := RankClusters(parts, DefaultBadnessWeights())
	if len(ranked) != 2 || ranked[0].Cluster != "B" {
		t.Fatalf("ranking = %+v, want B worst", ranked)
	}
	if !almostEq(ranked[0].InterComm, 0.3) || !almostEq(ranked[1].InterComm, 0.2) {
		t.Errorf("intercomm = %v,%v want 0.3,0.2", ranked[0].InterComm, ranked[1].InterComm)
	}
	if !almostEq(ranked[0].Badness, 34) || !almostEq(ranked[1].Badness, 21) {
		t.Errorf("badness = %v,%v want 34,21", ranked[0].Badness, ranked[1].Badness)
	}
}

func TestRankClustersWorstFirst(t *testing.T) {
	w := DefaultBadnessWeights()
	stats := []NodeStats{
		{Node: "g1", Cluster: "good", Speed: 10, InterComm: 0.02},
		{Node: "g2", Cluster: "good", Speed: 10, InterComm: 0.02},
		{Node: "s1", Cluster: "sat", Speed: 10, InterComm: 0.5},
		{Node: "s2", Cluster: "sat", Speed: 10, InterComm: 0.4},
	}
	ranked := RankClusters(partials(stats), w)
	if ranked[0].Cluster != "sat" {
		t.Fatalf("saturated cluster should rank worst, got %v", ranked[0].Cluster)
	}
	if ranked[0].Badness <= ranked[1].Badness {
		t.Errorf("badness not descending: %v then %v", ranked[0].Badness, ranked[1].Badness)
	}
	// A partial without reports (a sub that summarized before its
	// nodes' first period) has no badness.
	ranked = RankClusters(append(partials(stats), ClusterPartial{Cluster: "new"}), w)
	if len(ranked) != 2 {
		t.Errorf("empty partial ranked: %+v", ranked)
	}
}

func TestRankNodesWorstClusterBonusAndSpeed(t *testing.T) {
	w := DefaultBadnessWeights()
	stats := []NodeStats{
		{Node: "fast", Cluster: "A", Speed: 10, InterComm: 0.01},
		{Node: "slow", Cluster: "A", Speed: 1, InterComm: 0.01},
		{Node: "wan1", Cluster: "B", Speed: 10, InterComm: 0.30},
		{Node: "wan2", Cluster: "B", Speed: 10, InterComm: 0.30},
	}
	ranked := RankNodes(stats, w)
	// Cluster B saturates its uplink: its members must outrank even the
	// very slow node in A, since β·0.3 + γ = 40 > α·10.
	if ranked[0].Cluster != "B" || ranked[1].Cluster != "B" {
		t.Fatalf("worst-cluster members should rank first: %+v", ranked)
	}
	if ranked[2].Node != "slow" {
		t.Errorf("slow node should be third, got %v", ranked[2].Node)
	}
	if ranked[3].Node != "fast" {
		t.Errorf("fast clean node should be last, got %v", ranked[3].Node)
	}
}

func TestRankNodesDeterministicTieBreak(t *testing.T) {
	w := DefaultBadnessWeights()
	stats := []NodeStats{
		{Node: "z", Cluster: "A", Speed: 5},
		{Node: "a", Cluster: "A", Speed: 5},
		{Node: "m", Cluster: "A", Speed: 5},
	}
	ranked := RankNodes(stats, w)
	if ranked[0].Node != "a" || ranked[1].Node != "m" || ranked[2].Node != "z" {
		t.Errorf("ties must break on NodeID: %+v", ranked)
	}
}

func TestRankNodesZeroSpeedFinite(t *testing.T) {
	ranked := RankNodes([]NodeStats{
		{Node: "dead", Cluster: "A", Speed: 0},
		{Node: "ok", Cluster: "A", Speed: 10},
	}, DefaultBadnessWeights())
	for _, r := range ranked {
		if math.IsInf(r.Badness, 0) || math.IsNaN(r.Badness) {
			t.Fatalf("badness must stay finite, got %v for %v", r.Badness, r.Node)
		}
	}
	if ranked[0].Node != "dead" {
		t.Errorf("zero-speed node should rank worst")
	}
}
