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

// The TestPairBandwidths* tests pin the pair estimation inside
// BandwidthCulprit, over the cluster partials the root holds.

func TestPairBandwidthsCombinesDirections(t *testing.T) {
	_, bw, ref, ok := BandwidthCulprit(partials(linkStats()), 0)
	if !ok {
		t.Fatal("no culprit found")
	}
	// Both directions combined: A<->B moved 32 MB over 3 s, the best
	// pair anywhere; C's best pair is A<->C, 0.9 MB over 110 s.
	if ref != 32e6/3 {
		t.Errorf("reference bandwidth = %v, want %v", ref, 32e6/3)
	}
	if bw != 9e5/110 {
		t.Errorf("culprit best-pair bandwidth = %v, want %v", bw, 9e5/110)
	}
}

func TestPairBandwidthsEvidenceFloor(t *testing.T) {
	// Only A<->B moved more than 1 MB of evidence: one pair names no
	// culprit.
	if c, _, _, ok := BandwidthCulprit(partials(linkStats()), 1e6); ok {
		t.Fatalf("one evidenced pair named culprit %v", c)
	}
	// At 0.8 MB, B<->C (0.7 MB) drops out and A<->C still counts.
	culprit, bw, _, ok := BandwidthCulprit(partials(linkStats()), 8e5)
	if !ok || culprit != "C" || bw != 9e5/110 {
		t.Errorf("culprit = %v %v %v, want C at %v", culprit, bw, ok, 9e5/110)
	}
}

func TestBandwidthCulpritFindsCongestedCluster(t *testing.T) {
	culprit, bw, ref, ok := BandwidthCulprit(partials(linkStats()), 0)
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
	if _, _, _, ok := BandwidthCulprit(partials(one), 0); ok {
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
	culprit, bw, ref, ok := BandwidthCulprit(partials(healthy), 0)
	if !ok {
		t.Fatal("want a (harmless) culprit candidate")
	}
	if bw < ref*0.5 {
		t.Errorf("healthy grid: culprit %v bw %v vs ref %v should be comparable", culprit, bw, ref)
	}
}

// Two clusters whose best pairs are equally thin: the lower ClusterID
// is the culprit, whatever order the pairs are visited in.
func TestBandwidthCulpritTieBreaksOnClusterID(t *testing.T) {
	parts := []ClusterPartial{
		{Cluster: "A", Stats: 1, Links: map[ClusterID]LinkSample{
			"B": {Seconds: 1, Bytes: 10e6}, "D": {Seconds: 10, Bytes: 1e6}}},
		{Cluster: "B", Stats: 1, Links: map[ClusterID]LinkSample{
			"C": {Seconds: 10, Bytes: 1e6}}},
	}
	for i := 0; i < 20; i++ {
		culprit, bw, ref, ok := BandwidthCulprit(parts, 0)
		if !ok || culprit != "C" || bw != 1e5 || ref != 10e6 {
			t.Fatalf("culprit = %v %v %v %v, want C at 1e5 of 1e7", culprit, bw, ref, ok)
		}
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
		inPair := make(map[ClusterID]bool)
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
			inPair[c], inPair[peer] = true, true
		}
		culprit, bw, ref, ok := BandwidthCulprit(partials(stats), 0)
		if !ok {
			return true
		}
		return bw <= ref && inPair[culprit]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
