package satin

import (
	"sync"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/topo"
)

// TestTwoGridsSharedPool runs two grids in one process over one shared
// arbiter — the multi-job service's deployment shape. Each grid has
// its own fabric, registry and report epoch; only capacity is shared.
func TestTwoGridsSharedPool(t *testing.T) {
	arb, err := pool.New(topo.Topology{Clusters: []topo.Cluster{
		{ID: "fs0", Nodes: 4, Speed: 1, LANLatency: 5e-5, LANBandwidth: 1e8,
			WANLatency: 5e-4, UplinkBandwidth: 5e7},
	}}, pool.Config{})
	if err != nil {
		t.Fatal(err)
	}

	newGrid := func(client *pool.Client) *Grid {
		g, err := NewGrid(GridConfig{
			Clusters:   []ClusterSpec{{Name: "fs0", Nodes: 4}},
			Pool:       client,
			Registry:   fastReg(),
			LANLatency: 50 * time.Microsecond,
			WANLatency: time.Millisecond,
			Node: NodeConfig{
				LocalStealTimeout: 100 * time.Millisecond,
				WANStealTimeout:   500 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	c1, _ := arb.Register("g1", 1, 0)
	c2, _ := arb.Register("g2", 1, 0)
	g1 := newGrid(c1)
	time.Sleep(5 * time.Millisecond)
	g2 := newGrid(c2)

	// Per-grid report epochs must be independent: each grid anchors its
	// own timeline when it is built, never a process-wide one.
	if g1.cfg.Node.Epoch.IsZero() || g2.cfg.Node.Epoch.IsZero() {
		t.Fatal("grids must anchor a report epoch")
	}
	if !g2.cfg.Node.Epoch.After(g1.cfg.Node.Epoch) {
		t.Fatalf("epochs not per-grid: g1 %v, g2 %v", g1.cfg.Node.Epoch, g2.cfg.Node.Epoch)
	}

	n1, err := g1.StartNodes("fs0", 2)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := g2.StartNodes("fs0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if free := arb.Free(); free != 0 {
		t.Fatalf("4 nodes across two grids should exhaust the pool, %d free", free)
	}

	// Both computations complete concurrently, each within its own grid.
	var wg sync.WaitGroup
	results := make([]any, 2)
	errs := make([]error, 2)
	for i, master := range []*Node{n1[0], n2[0]} {
		wg.Add(1)
		go func(i int, m *Node) {
			defer wg.Done()
			results[i], errs[i] = m.Run(tfib{N: 15})
		}(i, master)
	}
	wg.Wait()
	want := fibLeaves(15)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("grid %d: %v", i+1, errs[i])
		}
		if results[i].(int) != want {
			t.Fatalf("grid %d: got %v, want %d — grids cross-contaminated", i+1, results[i], want)
		}
	}

	// Node sets never overlap: the shared pool hands each node to
	// exactly one grid.
	for _, n := range g1.Nodes() {
		if g2.Node(n.ID()) != nil {
			t.Fatalf("node %s appears in both grids", n.ID())
		}
	}

	// Tearing one grid down returns its capacity to the shared pool for
	// the other to claim.
	g1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for arb.Free() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if arb.Free() < 2 {
		t.Fatalf("closed grid's nodes not back in the pool: %d free", arb.Free())
	}
	if _, err := g2.StartNodes("fs0", 2); err != nil {
		t.Fatalf("surviving grid cannot claim freed capacity: %v", err)
	}
	if g2.NodeCount() != 4 {
		t.Fatalf("g2 should now hold 4 nodes, has %d", g2.NodeCount())
	}
}
