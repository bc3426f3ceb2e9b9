package satin

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// joinRTT is the registry join round trip of deployGrid: a node and the
// registry are WANLatency/2 apart each way. It is 40 ms so that the
// scheduling noise of a loaded two-CPU box under -race stays small
// beside it.
const joinRTT = 40 * time.Millisecond

func deployGrid(t *testing.T, wrap func(transport.Fabric) transport.Fabric, clusters ...ClusterSpec) *Grid {
	t.Helper()
	g, err := NewGrid(GridConfig{Clusters: clusters, WANLatency: joinRTT, WrapFabric: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// settleGoroutines waits for the goroutine count to come down to want.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines %s, want at most %d:\n%s", runtime.NumGoroutine(), when, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A deployment step costs one join round trip however many nodes it
// brings in: the four joins of StartNodes(c, 4) overlap. Started one
// after another they took four round trips.
func TestStartNodesOverlapsJoins(t *testing.T) {
	g := deployGrid(t, nil, ClusterSpec{Name: "c0", Nodes: 4})
	start := time.Now()
	nodes, err := g.StartNodes("c0", 4)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < joinRTT || took >= 2*joinRTT {
		t.Fatalf("StartNodes(c0, 4) took %v, want one join round trip (%v) and under two", took, joinRTT)
	}
	if len(nodes) != 4 || g.NodeCount() != 4 {
		t.Fatalf("got %d nodes, grid holds %d, want 4", len(nodes), g.NodeCount())
	}
	for i, n := range nodes {
		if want := NodeID(fmt.Sprintf("c0/%02d", i)); n.ID() != want {
			t.Fatalf("nodes[%d] = %s, want %s: not in ref order", i, n.ID(), want)
		}
	}
	// Whatever order the joins landed in, everybody ends up knowing
	// everybody: from the ack, or from the join events that follow it.
	for _, n := range nodes {
		waitUntil(t, fmt.Sprintf("%s sees four members", n.ID()), func() bool {
			return len(n.members.client().Members()) == 4
		})
	}
}

// The coordinator's grow is a deployment step too: Provision(4) blocks
// its tick for one round trip, not four.
func TestProvisionOverlapsJoins(t *testing.T) {
	g := deployGrid(t, nil, ClusterSpec{Name: "c0", Nodes: 3}, ClusterSpec{Name: "c1", Nodes: 3})
	if _, err := g.StartNodes("c0", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := g.Provision(4, 0, nil)
	took := time.Since(start)
	if got != 4 || g.NodeCount() != 5 {
		t.Fatalf("Provision(4) = %d, grid holds %d nodes, want 4 and 5", got, g.NodeCount())
	}
	if took < joinRTT || took >= 2*joinRTT {
		t.Fatalf("Provision(4) took %v, want one join round trip (%v) and under two", took, joinRTT)
	}
}

// refuseFabric refuses to attach one endpoint name.
type refuseFabric struct {
	transport.Fabric
	name string
}

func (f refuseFabric) Endpoint(name string) (transport.Endpoint, error) {
	if name == f.name {
		return nil, fmt.Errorf("refused %q", name)
	}
	return f.Fabric.Endpoint(name)
}

// One node of a step failing to start does not take the step down: the
// others are returned running, the failed ref is free again, and the
// error says which node it was.
func TestStartNodesPartialFailure(t *testing.T) {
	g := deployGrid(t, func(f transport.Fabric) transport.Fabric {
		return refuseFabric{f, satinEP("c0/02")}
	}, ClusterSpec{Name: "c0", Nodes: 4})
	nodes, err := g.StartNodes("c0", 4)
	if err == nil || !strings.Contains(err.Error(), "c0/02") {
		t.Fatalf("err = %v, want one naming c0/02", err)
	}
	var ids []NodeID
	for _, n := range nodes {
		ids = append(ids, n.ID())
		if n.Stopped() || g.Node(n.ID()) != n {
			t.Errorf("%s was returned but is not running in the grid", n.ID())
		}
	}
	if fmt.Sprint(ids) != "[c0/00 c0/01 c0/03]" {
		t.Fatalf("started %v, want c0/00 c0/01 c0/03", ids)
	}
	if free := g.pool.FreeIn("c0"); free != 1 {
		t.Fatalf("%d refs free, want the refused one", free)
	}
	if v, err := nodes[0].Run(tfib{N: 8}); err != nil || v != fibLeaves(8) {
		t.Fatalf("fib(8) on the three survivors = %v, %v", v, err)
	}
}

// A grid closed while its nodes are joining does not leave StartNodes
// waiting out the join deadline (five seconds): the joins notice the
// closed fabric at their next retry, every ref goes back to the pool and
// nothing is left running.
func TestCloseWhileJoining(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := NewGrid(GridConfig{Clusters: []ClusterSpec{{Name: "fs0", Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := g.StartNodes("fs0", 4)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	g.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("StartNodes on a grid closed mid-join reported no error")
		}
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Fatalf("StartNodes returned %v after the close: %v", took, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StartNodes still blocked ten seconds after the close")
	}
	if free, n := g.pool.FreeIn("fs0"), g.NodeCount(); free != 4 || n != 0 {
		t.Fatalf("%d refs free and %d nodes in the grid, want 4 and 0", free, n)
	}
	settleGoroutines(t, base, "after the close")
}

// Steps on two clusters racing each other and Close: whichever phase
// the close finds each join in, every ref comes back, nothing panics
// and nothing is left running. The rounds run ten at a time because one
// whose close lands mid-join waits for the join's next retry.
func TestConcurrentStartNodesAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	round := func(i int) {
		g, err := NewGrid(GridConfig{
			Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}, {Name: "c1", Nodes: 2}},
			WANLatency: 400 * time.Microsecond,
		})
		if err != nil {
			t.Error(err)
			return
		}
		var wg sync.WaitGroup
		for _, c := range []ClusterID{"c0", "c1"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.StartNodes(c, 2)
			}()
		}
		time.Sleep(time.Duration(i%10) * 100 * time.Microsecond)
		g.Close()
		wg.Wait()
		for _, c := range []ClusterID{"c0", "c1"} {
			if free := g.pool.FreeIn(c); free != 2 {
				t.Errorf("round %d: %d refs of %s free after the close, want 2", i, free, c)
			}
		}
	}
	for batch := 0; batch < 5; batch++ {
		var wg sync.WaitGroup
		for i := 0; i < 10; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round(batch*10 + i)
			}()
		}
		wg.Wait()
	}
	settleGoroutines(t, base, "after fifty rounds")
}
