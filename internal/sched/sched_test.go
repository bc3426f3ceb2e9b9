package sched

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

func pool(t *testing.T) *Pool {
	t.Helper()
	tp := topo.Topology{Clusters: []topo.Cluster{
		{ID: "A", Nodes: 4, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1},
		{ID: "B", Nodes: 8, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1},
		{ID: "C", Nodes: 2, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1},
	}}
	p, err := NewPool(tp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolRejectsInvalidTopology(t *testing.T) {
	if _, err := NewPool(topo.Topology{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestPoolCounts(t *testing.T) {
	p := pool(t)
	if p.FreeCount() != 14 || p.InUseCount() != 0 {
		t.Fatalf("free=%d inuse=%d", p.FreeCount(), p.InUseCount())
	}
	got := p.AcquireN("A", 3)
	if len(got) != 3 {
		t.Fatalf("AcquireN = %v", got)
	}
	if p.FreeCount() != 11 || p.InUseCount() != 3 || p.FreeIn("A") != 1 {
		t.Fatalf("after acquire: free=%d inuse=%d freeA=%d",
			p.FreeCount(), p.InUseCount(), p.FreeIn("A"))
	}
}

func TestAcquireSpecific(t *testing.T) {
	p := pool(t)
	ref, err := p.Acquire("A", topo.NodeName("A", 2))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Node != "A/02" || ref.Cluster != "A" {
		t.Fatalf("ref = %+v", ref)
	}
	if _, err := p.Acquire("A", topo.NodeName("A", 2)); err == nil {
		t.Fatal("double acquire succeeded")
	}
	if _, err := p.Acquire("A", "Z/00"); err == nil {
		t.Fatal("acquire of unknown node succeeded")
	}
}

func TestRequestPrefersOccupiedClusters(t *testing.T) {
	p := pool(t)
	got := p.Request(3, []core.ClusterID{"C", "A"}, nil)
	if len(got) != 3 {
		t.Fatalf("got %d nodes", len(got))
	}
	// C has 2 nodes, so 2 from C then 1 from A.
	if got[0].Cluster != "C" || got[1].Cluster != "C" || got[2].Cluster != "A" {
		t.Fatalf("allocation order wrong: %+v", got)
	}
}

func TestRequestFallsBackToLargestFreeCluster(t *testing.T) {
	p := pool(t)
	got := p.Request(5, nil, nil)
	// B has most free nodes (8): all 5 should land there (locality).
	for _, r := range got {
		if r.Cluster != "B" {
			t.Fatalf("expected all nodes in B, got %+v", got)
		}
	}
}

func TestRequestHonoursVeto(t *testing.T) {
	p := pool(t)
	veto := func(n core.NodeID, c core.ClusterID) bool { return c == "B" }
	got := p.Request(10, nil, veto)
	if len(got) != 6 { // A(4) + C(2)
		t.Fatalf("got %d nodes, want 6 (B vetoed)", len(got))
	}
	for _, r := range got {
		if r.Cluster == "B" {
			t.Fatalf("vetoed cluster allocated: %+v", r)
		}
	}
}

func TestRequestPartialWhenGridBusy(t *testing.T) {
	p := pool(t)
	_ = p.Request(14, nil, nil)
	got := p.Request(3, nil, nil)
	if len(got) != 0 {
		t.Fatalf("empty pool handed out %v", got)
	}
}

func TestReleaseReturnsNode(t *testing.T) {
	p := pool(t)
	got := p.AcquireN("C", 2)
	p.Release(got[0])
	if p.FreeIn("C") != 1 || p.InUseCount() != 1 {
		t.Fatalf("freeC=%d inuse=%d", p.FreeIn("C"), p.InUseCount())
	}
	// Releasing twice is harmless.
	p.Release(got[0])
	if p.FreeIn("C") != 1 {
		t.Fatalf("double release changed pool: freeC=%d", p.FreeIn("C"))
	}
	// Released node can be re-acquired.
	if _, err := p.Acquire("C", got[0].Node); err != nil {
		t.Fatalf("re-acquire failed: %v", err)
	}
}

func TestMarkDeadInUseNodeNeverReturns(t *testing.T) {
	p := pool(t)
	got := p.AcquireN("A", 1)
	p.MarkDead(got[0].Node)
	if p.InUseCount() != 0 {
		t.Fatalf("dead node still in use")
	}
	p.Release(got[0]) // late release of a dead node must not resurrect it
	if p.FreeIn("A") != 3 {
		t.Fatalf("dead node resurrected: freeA=%d", p.FreeIn("A"))
	}
}

func TestMarkDeadFreeNode(t *testing.T) {
	p := pool(t)
	p.MarkDead(topo.NodeName("A", 0))
	if p.FreeIn("A") != 3 {
		t.Fatalf("freeA = %d, want 3", p.FreeIn("A"))
	}
	refs := p.AcquireN("A", 4)
	if len(refs) != 3 {
		t.Fatalf("acquired %d, want 3 (one dead)", len(refs))
	}
	for _, r := range refs {
		if r.Node == "A/00" {
			t.Fatal("dead node handed out")
		}
	}
}

func TestPoolConcurrentSafety(t *testing.T) {
	p := pool(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				refs := p.Request(2, []core.ClusterID{"B"}, nil)
				for _, r := range refs {
					p.Release(r)
				}
				p.FreeCount()
				p.InUseCount()
			}
		}()
	}
	wg.Wait()
	if p.FreeCount() != 14 || p.InUseCount() != 0 {
		t.Fatalf("pool leaked: free=%d inuse=%d", p.FreeCount(), p.InUseCount())
	}
}

// TestLocalityOrder pins the one grow-placement rule both runtimes call
// (des.simActuator.Provision and satin.Grid.Provision): occupied
// clusters, most nodes held first, ties by ID — and that a Request
// carrying it places the first grown node on the head of that order.
func TestLocalityOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		held map[core.ClusterID]int
		want []core.ClusterID
	}{
		{"nothing held", nil, []core.ClusterID{}},
		{"fuller first", map[core.ClusterID]int{"A": 1, "B": 3}, []core.ClusterID{"B", "A"}},
		{"fuller first, ID order reversed", map[core.ClusterID]int{"A": 3, "B": 1}, []core.ClusterID{"A", "B"}},
		{"ties by ID", map[core.ClusterID]int{"C": 2, "A": 2, "B": 2}, []core.ClusterID{"A", "B", "C"}},
		{"count before ID", map[core.ClusterID]int{"A": 1, "B": 2, "C": 2}, []core.ClusterID{"B", "C", "A"}},
	} {
		for run := 0; run < 10; run++ { // map order must not show
			if got := LocalityOrder(tc.held); !slices.Equal(got, tc.want) {
				t.Fatalf("%s: order = %v, want %v", tc.name, got, tc.want)
			}
		}
		if len(tc.want) == 0 {
			continue
		}
		p := pool(t)
		for c, n := range tc.held {
			p.AcquireN(c, n)
		}
		got := p.Request(1, LocalityOrder(tc.held), nil)
		if len(got) != 1 || got[0].Cluster != tc.want[0] {
			t.Errorf("%s: grown node = %v, want one in %s", tc.name, got, tc.want[0])
		}
	}
}
