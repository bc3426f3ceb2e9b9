package core

import (
	"testing"
	"testing/quick"
)

func linkStats() []NodeStats {
	// Three clusters; C's access link is congested: every pair with C
	// shows tiny achieved bandwidth, while A<->B stays healthy.
	mk := func(node NodeID, cluster ClusterID, links map[ClusterID]LinkSample) NodeStats {
		return NodeStats{Node: node, Cluster: cluster, Speed: 1, Idle: 0.8, Links: links}
	}
	return []NodeStats{
		mk("a0", "A", map[ClusterID]LinkSample{
			"B": {Seconds: 2, Bytes: 20e6}, // 10 MB/s
			"C": {Seconds: 50, Bytes: 4e5}, // 8 KB/s
		}),
		mk("b0", "B", map[ClusterID]LinkSample{
			"A": {Seconds: 1, Bytes: 12e6}, // 12 MB/s
			"C": {Seconds: 40, Bytes: 3e5}, // 7.5 KB/s
		}),
		mk("c0", "C", map[ClusterID]LinkSample{
			"A": {Seconds: 60, Bytes: 5e5},
			"B": {Seconds: 55, Bytes: 4e5},
		}),
	}
}

func TestLinkSampleBandwidth(t *testing.T) {
	if bw := (LinkSample{Seconds: 2, Bytes: 10}).Bandwidth(); bw != 5 {
		t.Errorf("bandwidth = %v, want 5", bw)
	}
	if bw := (LinkSample{}).Bandwidth(); bw != 0 {
		t.Errorf("empty sample bandwidth = %v", bw)
	}
}

func TestPairKeyCanonical(t *testing.T) {
	if PairKey("B", "A") != PairKey("A", "B") {
		t.Fatal("pair keys not canonical")
	}
	if k := PairKey("A", "B"); k[0] != "A" || k[1] != "B" {
		t.Fatalf("key = %v", k)
	}
}

func TestPairBandwidthsCombinesDirections(t *testing.T) {
	pairs := PairBandwidths(linkStats(), 0)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3", len(pairs))
	}
	ab := pairs[PairKey("A", "B")]
	// Both directions combined: 32 MB over 3 s.
	if ab.Bytes != 32e6 || ab.Seconds != 3 {
		t.Errorf("A<->B sample = %+v", ab)
	}
	ac := pairs[PairKey("A", "C")]
	if bw := ac.Bandwidth(); bw > 1e4 {
		t.Errorf("A<->C bandwidth = %v, want thin", bw)
	}
}

func TestPairBandwidthsEvidenceFloor(t *testing.T) {
	pairs := PairBandwidths(linkStats(), 1e6)
	// Only A<->B moved more than 1 MB of evidence.
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs above floor, want 1: %v", len(pairs), pairs)
	}
	if _, ok := pairs[PairKey("A", "B")]; !ok {
		t.Error("A<->B missing")
	}
}

func TestBandwidthCulpritFindsCongestedCluster(t *testing.T) {
	culprit, bw, ref, ok := BandwidthCulprit(linkStats(), 0)
	if !ok {
		t.Fatal("no culprit found")
	}
	if culprit != "C" {
		t.Fatalf("culprit = %v, want C", culprit)
	}
	// C's best pair is ~8 KB/s; the reference is A<->B ~10.7 MB/s.
	if bw > 1e4 {
		t.Errorf("culprit best bw = %v, want thin", bw)
	}
	if ref < 1e6 {
		t.Errorf("reference bw = %v, want healthy", ref)
	}
}

func TestBandwidthCulpritNeedsTwoPairs(t *testing.T) {
	one := []NodeStats{{
		Node: "a", Cluster: "A", Speed: 1,
		Links: map[ClusterID]LinkSample{"B": {Seconds: 1, Bytes: 100}},
	}}
	if _, _, _, ok := BandwidthCulprit(one, 0); ok {
		t.Fatal("single pair should not identify a culprit")
	}
	if _, _, _, ok := BandwidthCulprit(nil, 0); ok {
		t.Fatal("no stats should not identify a culprit")
	}
}

func TestBandwidthCulpritHealthyGridHasHighRatio(t *testing.T) {
	healthy := []NodeStats{
		{Node: "a", Cluster: "A", Speed: 1, Links: map[ClusterID]LinkSample{
			"B": {Seconds: 1, Bytes: 10e6}, "C": {Seconds: 1, Bytes: 9e6}}},
		{Node: "b", Cluster: "B", Speed: 1, Links: map[ClusterID]LinkSample{
			"C": {Seconds: 1, Bytes: 11e6}}},
	}
	culprit, bw, ref, ok := BandwidthCulprit(healthy, 0)
	if !ok {
		t.Fatal("want a (harmless) culprit candidate")
	}
	if bw < ref*0.5 {
		t.Errorf("healthy grid: culprit %v bw %v vs ref %v should be comparable", culprit, bw, ref)
	}
}

// Property: the culprit's best-pair bandwidth never exceeds the
// reference, and the culprit is always a cluster that appears in some
// pair.
func TestBandwidthCulpritProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) < 4 {
			return true
		}
		clusters := []ClusterID{"A", "B", "C", "D"}
		var stats []NodeStats
		for i, raw := range seeds {
			c := clusters[i%len(clusters)]
			peer := clusters[(i+1+int(raw)%3)%len(clusters)]
			if peer == c {
				continue
			}
			stats = append(stats, NodeStats{
				Node: NodeID(rune('a' + i%26)), Cluster: c, Speed: 1,
				Links: map[ClusterID]LinkSample{
					peer: {Seconds: float64(raw%100) + 0.1, Bytes: float64(raw)*1000 + 1},
				},
			})
		}
		culprit, bw, ref, ok := BandwidthCulprit(stats, 0)
		if !ok {
			return true
		}
		if bw > ref {
			return false
		}
		pairs := PairBandwidths(stats, 0)
		for k := range pairs {
			if k[0] == culprit || k[1] == culprit {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
