package satin

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
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

// A deployment step waits for no join ack: StartNodes(c, 4) returns with
// the four workers running and their joins in flight. Whatever order the
// acks land in, everybody knows everybody within two round trips: from
// the ack, or from the join events that follow it.
func TestStartNodesReturnsBeforeJoinsAck(t *testing.T) {
	g := deployGrid(t, nil, ClusterSpec{Name: "c0", Nodes: 4})
	start := time.Now()
	nodes, err := g.StartNodes("c0", 4)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took >= joinRTT/4 {
		t.Fatalf("StartNodes(c0, 4) took %v, want under a quarter of a join round trip (%v)", took, joinRTT)
	}
	if len(nodes) != 4 || g.NodeCount() != 4 {
		t.Fatalf("got %d nodes, grid holds %d, want 4", len(nodes), g.NodeCount())
	}
	for i, n := range nodes {
		if want := NodeID(fmt.Sprintf("c0/%02d", i)); n.ID() != want {
			t.Fatalf("nodes[%d] = %s, want %s: not in ref order", i, n.ID(), want)
		}
	}
	waitMembers(t, start, nodes, 4)
}

// The coordinator's grow is a deployment step too: Provision(4) does not
// hold its tick for a round trip.
func TestProvisionReturnsBeforeJoinsAck(t *testing.T) {
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
	if took >= joinRTT/4 {
		t.Fatalf("Provision(4) took %v, want under a quarter of a join round trip (%v)", took, joinRTT)
	}
	waitMembers(t, start, g.Nodes(), 5)
}

// waitMembers fails unless every node's registry view holds want
// members within two join round trips of start.
func waitMembers(t *testing.T, start time.Time, nodes []*Node, want int) {
	t.Helper()
	for _, n := range nodes {
		for len(n.members.client().Members()) != want {
			if time.Since(start) > 2*joinRTT {
				t.Fatalf("%s sees %d members %v after the step, want %d", n.ID(), len(n.members.client().Members()), time.Since(start), want)
			}
			time.Sleep(time.Millisecond)
		}
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

// A grid closed while its nodes' joins are in flight closes at once:
// the close stops each join's retry, every ref goes back to the pool and
// nothing is left running. The step racing the close may return the
// nodes or an error; either way they are stopped.
func TestCloseWhileJoining(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := NewGrid(GridConfig{Clusters: []ClusterSpec{{Name: "fs0", Nodes: 4}}, WANLatency: joinRTT})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		g.StartNodes("fs0", 4)
		close(done)
	}()
	time.Sleep(time.Millisecond)
	start := time.Now()
	g.Close()
	select {
	case <-done:
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Fatalf("close and step returned %v after the close began", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StartNodes still blocked ten seconds after the close")
	}
	if free, n := g.pool.FreeIn("fs0"), g.NodeCount(); free != 4 || n != 0 {
		t.Fatalf("%d refs free and %d nodes in the grid, want 4 and 0", free, n)
	}
	settleGoroutines(t, base, "after the close")
}

// lostJoinFabric stands for a registry the matching endpoints never
// reach: the first join each sends is lost on the way, and every later
// send to the registry finds it closed, so their joins give up at the
// first retry.
type lostJoinFabric struct {
	transport.Fabric
	lost func(endpoint string) bool
}

func (f lostJoinFabric) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(name)
	if err != nil || !f.lost(name) {
		return ep, err
	}
	return &lostJoinEndpoint{Endpoint: ep}, nil
}

type lostJoinEndpoint struct {
	transport.Endpoint
	sent atomic.Bool
}

func (e *lostJoinEndpoint) Send(to, kind string, payload []byte) error {
	if to != registry.ServerName {
		return e.Endpoint.Send(to, kind, payload)
	}
	if e.sent.CompareAndSwap(false, true) {
		return nil
	}
	return transport.ErrClosed
}

// A join that gives up is a crash on arrival: the node StartNodes
// returned stops within one retry, its ref is free again, the failure is
// counted, and nothing is left running.
func TestFailedJoinStopsNode(t *testing.T) {
	base := runtime.NumGoroutine()
	failed := obsJoinFailed.Value()
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "c0", Nodes: 1}},
		WrapFabric: func(f transport.Fabric) transport.Fabric { return lostJoinFabric{f, func(string) bool { return true }} },
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	nodes, err := g.StartNodes("c0", 1)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("StartNodes = %d nodes, %v; want the node, running", len(nodes), err)
	}
	waitUntil(t, "the node is stopped and its ref free", func() bool {
		return nodes[0].Stopped() && g.NodeCount() == 0 && g.pool.FreeIn("c0") == 1
	})
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("the node stopped %v after its start, want within one retry (100ms)", took)
	}
	if n := obsJoinFailed.Value() - failed; n != 1 {
		t.Fatalf("satin/join_failed rose by %d, want 1", n)
	}
	g.Close()
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
