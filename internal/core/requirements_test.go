package core

import (
	"strings"
	"sync"
	"testing"
)

func TestRequirementsBlacklist(t *testing.T) {
	r := NewRequirements()
	if r.NodeBlacklisted("n1", "c1") {
		t.Fatal("fresh requirements should not blacklist anything")
	}
	r.BlacklistNode("n1", "overloaded")
	if !r.NodeBlacklisted("n1", "c1") {
		t.Error("n1 should be blacklisted")
	}
	if r.NodeBlacklisted("n2", "c1") {
		t.Error("n2 should not be blacklisted")
	}
	r.BlacklistCluster("c9", "bad uplink")
	if !r.NodeBlacklisted("anything", "c9") {
		t.Error("nodes of a blacklisted cluster are blacklisted")
	}
	if !r.ClusterBlacklisted("c9") {
		t.Error("c9 should be blacklisted")
	}
	got := r.BlacklistedNodes()
	if len(got) != 1 || got[0] != "n1" {
		t.Errorf("BlacklistedNodes = %v", got)
	}
	if cs := r.BlacklistedClusters(); len(cs) != 1 || cs[0] != "c9" {
		t.Errorf("BlacklistedClusters = %v", cs)
	}
}

func TestRequirementsMinBandwidthMonotone(t *testing.T) {
	r := NewRequirements()
	if bw := r.MinBandwidth(); bw != 0 {
		t.Fatalf("initial min bandwidth = %v, want 0", bw)
	}
	r.LearnMinBandwidth(100e3)
	r.LearnMinBandwidth(50e3) // lower estimate must not loosen the bound
	if bw := r.MinBandwidth(); bw != 100e3 {
		t.Errorf("min bandwidth = %v, want 100e3", bw)
	}
	r.LearnMinBandwidth(2e6)
	if bw := r.MinBandwidth(); bw != 2e6 {
		t.Errorf("min bandwidth = %v, want 2e6", bw)
	}
	r.LearnMinBandwidth(-5)
	r.LearnMinBandwidth(0)
	if bw := r.MinBandwidth(); bw != 2e6 {
		t.Errorf("non-positive estimates must be ignored, got %v", bw)
	}
}

func TestRequirementsConcurrent(t *testing.T) {
	r := NewRequirements()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := NodeID(rune('a' + i))
				r.BlacklistNode(id, "x")
				r.NodeBlacklisted(id, "c")
				r.LearnMinBandwidth(float64(j))
				r.BlacklistedNodes()
				r.MinBandwidth()
			}
		}(i)
	}
	wg.Wait()
	if n := len(r.BlacklistedNodes()); n != 8 {
		t.Errorf("got %d blacklisted nodes, want 8", n)
	}
}

func TestRequirementsString(t *testing.T) {
	r := NewRequirements()
	r.BlacklistNode("n", "slow")
	r.LearnMinBandwidth(1e5)
	s := r.String()
	if !strings.Contains(s, "blacklistedNodes=1") || !strings.Contains(s, "100000") {
		t.Errorf("String() = %q", s)
	}
}
