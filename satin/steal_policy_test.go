package satin

import (
	"testing"
	"time"
)

// runPolicyGrid runs one divide-and-conquer workload on a 2-cluster
// in-proc grid under the given steal policy and returns the number of
// synchronous cross-cluster steal attempts the nodes issued — the WAN
// round trips paid in the idle path.
func runPolicyGrid(t *testing.T, policy StealPolicy) int64 {
	t.Helper()
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}, {Name: "c1", Nodes: 2}},
		Registry:   fastReg(),
		LANLatency: 50 * time.Microsecond,
		WANLatency: 1 * time.Millisecond,
		Seed:       42,
		Node: NodeConfig{
			StealPolicy:       policy,
			LocalStealTimeout: 50 * time.Millisecond,
			WANStealTimeout:   200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var nodes []*Node
	for _, c := range []ClusterID{"c0", "c1"} {
		ns, err := g.StartNodes(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, ns...)
	}
	time.Sleep(100 * time.Millisecond) // let membership settle
	want := fibLeaves(13)
	res, err := nodes[0].Run(tfib{N: 13, Leaf: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Fatalf("fib(13) = %v, want %d", res, want)
	}
	var wide int64
	for _, n := range nodes {
		wide += n.StealStats().SyncWide
	}
	return wide
}

// TestRandomPaysMoreWANRoundTripsThanCRS is the ablation the paper's
// load-balancing substrate rests on: plain random stealing pays WAN
// round trips synchronously in the idle path, while CRS keeps
// synchronous attempts strictly local (its single wide-area steal is
// asynchronous, hidden behind LAN attempts).
func TestRandomPaysMoreWANRoundTripsThanCRS(t *testing.T) {
	crs := runPolicyGrid(t, StealCRS)
	rnd := runPolicyGrid(t, StealRandom)
	if crs != 0 {
		t.Fatalf("CRS issued %d synchronous cross-cluster steals; must be 0 by construction", crs)
	}
	if rnd <= crs {
		t.Fatalf("random stealing paid %d synchronous WAN round trips, CRS %d; random must pay strictly more", rnd, crs)
	}
	t.Logf("synchronous WAN steal attempts: CRS=%d random=%d", crs, rnd)
}
