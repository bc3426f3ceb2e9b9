package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRequirementsBlacklist(t *testing.T) {
	r := NewRequirements()
	if r.NodeBlacklisted("n1", "c1") {
		t.Fatal("fresh requirements should not blacklist anything")
	}
	r.BlacklistNode("n1")
	if !r.NodeBlacklisted("n1", "c1") {
		t.Error("n1 should be blacklisted")
	}
	if r.NodeBlacklisted("n2", "c1") {
		t.Error("n2 should not be blacklisted")
	}
	r.BlacklistCluster("c9")
	if !r.NodeBlacklisted("anything", "c9") {
		t.Error("nodes of a blacklisted cluster are blacklisted")
	}
	if !r.NodeBlacklisted("", "c9") {
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
				r.BlacklistNode(id)
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

// A snapshot handed out is never written again: acks, resets and the
// subs' caches alias it, so a later fact must show up in a new slice.
func TestSnapshotSurvivesLaterFacts(t *testing.T) {
	r := NewRequirements()
	r.BlacklistNode("a")
	r.BlacklistNode("c")
	r.BlacklistCluster("k2")
	nodes, clusters := r.BlacklistedNodes(), r.BlacklistedClusters()
	r.BlacklistNode("b")
	r.BlacklistCluster("k1")
	if !slices.Equal(nodes, []NodeID{"a", "c"}) || !slices.Equal(clusters, []ClusterID{"k2"}) {
		t.Fatalf("snapshots taken before the new facts now read %v %v", nodes, clusters)
	}
	if got := r.BlacklistedNodes(); !slices.Equal(got, []NodeID{"a", "b", "c"}) {
		t.Errorf("BlacklistedNodes = %v, want [a b c]", got)
	}
	if got := r.BlacklistedClusters(); !slices.Equal(got, []ClusterID{"k1", "k2"}) {
		t.Errorf("BlacklistedClusters = %v, want [k1 k2]", got)
	}
	if empty := NewRequirements().BlacklistedNodes(); empty == nil || len(empty) != 0 {
		t.Errorf("empty snapshot = %#v, want empty and non-nil", empty)
	}
}

// With nothing new learned a read is the snapshot the last read got:
// same backing array, no sort, no allocation. A known node blacklisted
// again is nothing new: the snapshot stays.
func TestSnapshotSharedUntilNewFact(t *testing.T) {
	r := NewRequirements()
	for i := 0; i < 2000; i++ {
		r.BlacklistNode(NodeID(fmt.Sprintf("n%04d", i)))
	}
	r.BlacklistCluster("k")
	nodes, clusters := r.BlacklistedNodes(), r.BlacklistedClusters()
	if !slices.IsSorted(nodes) || len(nodes) != 2000 {
		t.Fatalf("snapshot of %d nodes, sorted=%v", len(nodes), slices.IsSorted(nodes))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.BlacklistedNodes()
		r.BlacklistedClusters()
	}); allocs != 0 {
		t.Errorf("reading the snapshots allocates %.1f per run, want 0", allocs)
	}
	r.BlacklistNode("n0007")
	r.BlacklistCluster("k")
	if !r.NodeBlacklisted("n0007", "") || !r.NodeBlacklisted("", "k") {
		t.Error("re-blacklisting dropped a fact")
	}
	if again := r.BlacklistedNodes(); &again[0] != &nodes[0] {
		t.Error("re-blacklisting a known node rebuilt the node snapshot")
	}
	if again := r.BlacklistedClusters(); &again[0] != &clusters[0] {
		t.Error("re-blacklisting a known cluster rebuilt the cluster snapshot")
	}
	r.BlacklistNode("zzz")
	if fresh := r.BlacklistedNodes(); &fresh[0] == &nodes[0] || len(fresh) != 2001 || len(nodes) != 2000 {
		t.Errorf("a new fact must build a new snapshot: %d entries (old one %d), same array=%v",
			len(fresh), len(nodes), &fresh[0] == &nodes[0])
	}
}

// One writer, several readers walking whatever snapshot they got: under
// -race this is the proof that a handed-out snapshot is never written.
func TestSnapshotConcurrentReaders(t *testing.T) {
	r := NewRequirements()
	const facts = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				nodes := r.BlacklistedNodes()
				if !slices.IsSorted(nodes) || len(nodes) < last {
					t.Errorf("snapshot of %d after one of %d, sorted=%v", len(nodes), last, slices.IsSorted(nodes))
					return
				}
				last = len(nodes)
				for _, c := range r.BlacklistedClusters() {
					if !r.NodeBlacklisted("", c) {
						t.Errorf("cluster %s in the snapshot, not in the set", c)
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < facts; i++ {
		r.BlacklistNode(NodeID(fmt.Sprintf("n%03d", (i*7)%facts)))
		if i%50 == 0 {
			r.BlacklistCluster(ClusterID(fmt.Sprintf("k%02d", i/50)))
		}
	}
	close(stop)
	wg.Wait()
	if n := len(r.BlacklistedNodes()); n != facts {
		t.Errorf("%d nodes blacklisted, want %d", n, facts)
	}
}

func TestRequirementsString(t *testing.T) {
	r := NewRequirements()
	r.BlacklistNode("n")
	r.LearnMinBandwidth(1e5)
	s := r.String()
	if !strings.Contains(s, "blacklistedNodes=1") || !strings.Contains(s, "100000") {
		t.Errorf("String() = %q", s)
	}
}
