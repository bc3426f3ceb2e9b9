package satin

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/transport"
)

// tfib is the classic divide-and-conquer test workload: counts calls
// of the Fibonacci recursion, burning a little real time per leaf so
// stealing has something to balance.
type tfib struct {
	N    int
	Leaf time.Duration
}

func (f tfib) Execute(ctx *Context) (any, error) {
	if f.N < 2 {
		if f.Leaf > 0 {
			time.Sleep(f.Leaf)
		}
		return 1, nil
	}
	a := ctx.Spawn(tfib{N: f.N - 1, Leaf: f.Leaf})
	b := ctx.Spawn(tfib{N: f.N - 2, Leaf: f.Leaf})
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return a.Int() + b.Int(), nil
}

// terr fails on purpose.
type terr struct{ Boom bool }

func (t terr) Execute(ctx *Context) (any, error) {
	if t.Boom {
		return nil, errors.New("boom")
	}
	panic("kaboom")
}

func init() {
	Register(tfib{})
	Register(terr{})
}

func fibLeaves(n int) int {
	if n < 2 {
		return 1
	}
	return fibLeaves(n-1) + fibLeaves(n-2)
}

func fastReg() registry.Options {
	return registry.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    100 * time.Millisecond,
	}
}

func testGrid(t *testing.T, clusters ...ClusterSpec) *Grid {
	t.Helper()
	g, err := NewGrid(GridConfig{
		Clusters:   clusters,
		Registry:   fastReg(),
		LANLatency: 50 * time.Microsecond,
		WANLatency: 1 * time.Millisecond,
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

func TestSingleNodeExecutes(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	val, err := nodes[0].Run(tfib{N: 12})
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(12) {
		t.Fatalf("fib(12) = %v, want %d", val, fibLeaves(12))
	}
}

func TestMultiNodeDistributes(t *testing.T) {
	g := testGrid(t,
		ClusterSpec{Name: "c0", Nodes: 2},
		ClusterSpec{Name: "c1", Nodes: 2},
	)
	if _, err := g.StartNodes("c0", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartNodes("c1", 2); err != nil {
		t.Fatal(err)
	}
	master := g.Nodes()[0]
	for _, n := range g.Nodes() {
		if n.ID() < master.ID() {
			master = n
		}
	}
	val, err := master.Run(tfib{N: 15, Leaf: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(15) {
		t.Fatalf("fib(15) = %v, want %d", val, fibLeaves(15))
	}
	// Work must actually have been distributed: at least one other
	// node accumulated busy time.
	busyElsewhere := 0
	for _, n := range g.Nodes() {
		if n.ID() == master.ID() {
			continue
		}
		if rep := n.Report(); rep.BusySec > 0 {
			busyElsewhere++
		}
	}
	if busyElsewhere == 0 {
		t.Error("no stealing happened: all work stayed on the master")
	}
}

func TestErrorPropagates(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, _ := g.StartNodes("c0", 1)
	if _, err := nodes[0].Run(terr{Boom: true}); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, _ := g.StartNodes("c0", 1)
	_, err := nodes[0].Run(terr{Boom: false})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
}

func TestGracefulLeaveMidRun(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 4})
	nodes, err := g.StartNodes("c0", 4)
	if err != nil {
		t.Fatal(err)
	}
	master := nodes[0]
	fut := master.Submit(tfib{N: 17, Leaf: 200 * time.Microsecond})
	time.Sleep(50 * time.Millisecond) // let work spread
	// Two workers leave mid-computation (the coordinator's shrink).
	g.Registry().Signal(nodes[2].ID(), "leave")
	g.Registry().Signal(nodes[3].ID(), "leave")
	fut.Wait()
	val, err := fut.Result()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(17) {
		t.Fatalf("fib(17) = %v, want %d (leave corrupted the computation)", val, fibLeaves(17))
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.NodeCount() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("leavers never stopped: %d nodes live", g.NodeCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrashRecomputesOrphans(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 4})
	nodes, err := g.StartNodes("c0", 4)
	if err != nil {
		t.Fatal(err)
	}
	master := nodes[0]
	fut := master.Submit(tfib{N: 17, Leaf: 200 * time.Microsecond})
	time.Sleep(50 * time.Millisecond)
	nodes[3].Kill() // abrupt: orphaned jobs must be recomputed
	fut.Wait()
	val, err := fut.Result()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(17) {
		t.Fatalf("fib(17) = %v, want %d (crash lost work)", val, fibLeaves(17))
	}
}

func TestProvisionAddsNodes(t *testing.T) {
	g := testGrid(t,
		ClusterSpec{Name: "c0", Nodes: 2},
		ClusterSpec{Name: "c1", Nodes: 2},
	)
	if _, err := g.StartNodes("c0", 1); err != nil {
		t.Fatal(err)
	}
	added := g.Provision(2, 0, nil)
	if added != 2 {
		t.Fatalf("Provision added %d, want 2", added)
	}
	// Locality: the occupied cluster c0 fills first.
	perCluster := map[ClusterID]int{}
	for _, n := range g.Nodes() {
		perCluster[n.Cluster()]++
	}
	if perCluster["c0"] != 2 {
		t.Errorf("locality violated: %v", perCluster)
	}
	veto := func(id NodeID, c ClusterID) bool { return true }
	if added := g.Provision(1, 0, veto); added != 0 {
		t.Errorf("veto ignored: added %d", added)
	}
}

// TestProvisionGrowsOntoFullerCluster: with two occupied clusters a
// grown node lands on the one holding more nodes — the head of
// sched.LocalityOrder, which the simulator's Provision calls too — on
// every run of a seeded grid. A walk of the occupancy map picked either.
func TestProvisionGrowsOntoFullerCluster(t *testing.T) {
	held := map[ClusterID]int{"c0": 1, "c1": 3}
	want := sched.LocalityOrder(held)[0]
	if want != "c1" {
		t.Fatalf("scheduler's order for %v starts at %s, want the fuller c1", held, want)
	}
	for run := 0; run < 10; run++ {
		g, err := NewGrid(GridConfig{
			Clusters: []ClusterSpec{{Name: "c0", Nodes: 4}, {Name: "c1", Nodes: 4}},
			Registry: fastReg(),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c, n := range held {
			if _, err := g.StartNodes(c, n); err != nil {
				t.Fatal(err)
			}
		}
		if added := g.Provision(1, 0, nil); added != 1 {
			t.Fatalf("run %d: Provision added %d, want 1", run, added)
		}
		got := 0
		for _, n := range g.Nodes() {
			if n.Cluster() == want {
				got++
			}
		}
		g.Close()
		if got != held[want]+1 {
			t.Fatalf("run %d: grown node did not land on %s (it holds %d nodes, want %d)", run, want, got, held[want]+1)
		}
	}
}

// A node released and provisioned again comes back under the endpoint
// name it held before. Its peers must treat it as a new incarnation:
// joining must not stall on, and the next run must not lose frames to,
// what they remember of the old one. Its registry join is acked within
// twice the time a node under a fresh name takes (best of three each:
// both are about one emulated backbone round trip).
func TestReprovisionedNodeRejoinsPromptly(t *testing.T) {
	const rounds = 3
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 3 + rounds})
	nodes, err := g.StartNodes("c0", 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		val, err := nodes[0].Run(tfib{N: 16, Leaf: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if val.(int) != fibLeaves(16) {
			t.Fatalf("fib(16) = %v, want %d", val, fibLeaves(16))
		}
	}
	// provision adds one node and returns its ID and the time from the
	// Provision call to the node's join ack.
	provision := func() (NodeID, time.Duration) {
		t.Helper()
		had := make(map[NodeID]bool)
		for _, n := range g.Nodes() {
			had[n.ID()] = true
		}
		start := time.Now()
		if added := g.Provision(1, 0, nil); added != 1 {
			t.Fatalf("Provision added %d, want 1", added)
		}
		for _, n := range g.Nodes() {
			if had[n.ID()] {
				continue
			}
			select {
			case <-n.members.client().Joined():
				return n.ID(), time.Since(start)
			case <-time.After(2 * time.Second):
				t.Fatalf("%s's join was never acked", n.ID())
			}
		}
		t.Fatal("Provision added no node")
		return "", 0
	}
	leave := func(id NodeID) {
		t.Helper()
		live := g.NodeCount()
		g.Registry().Signal(id, "leave")
		for deadline := time.Now().Add(2 * time.Second); g.NodeCount() != live-1; {
			if time.Now().After(deadline) {
				t.Fatalf("leaver never stopped: %d nodes live", g.NodeCount())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	run()
	left := nodes[2].ID()
	dupBefore, desyncBefore := obs.Default.Total("wire/dup/"), obs.Default.Total("wire/desync/")
	rejoin, fresh := time.Hour, time.Hour
	for round := 0; round < rounds; round++ {
		leave(left)
		id, d := provision()
		if id != left {
			t.Fatalf("the released node came back as %s, not as %s", id, left)
		}
		rejoin = min(rejoin, d)
		id, d = provision()
		if id == left {
			t.Fatalf("a fresh slot was provisioned as the released %s", left)
		}
		fresh = min(fresh, d)
	}
	t.Logf("join ack after re-provisioning %s: %v; under a fresh name: %v", left, rejoin, fresh)
	if rejoin > 2*fresh {
		t.Fatalf("re-provisioned %s was acked after %v, more than twice a fresh name's %v", left, rejoin, fresh)
	}
	run()
	if d := obs.Default.Total("wire/dup/") - dupBefore; d != 0 {
		t.Fatalf("%d frames of the rejoined node discarded as duplicates", d)
	}
	if d := obs.Default.Total("wire/desync/") - desyncBefore; d != 0 {
		t.Fatalf("a fault-free rejoin reported %d sequence gaps as lost frames", d)
	}
}

func TestBenchmarkMeasuresSpeedAndLoad(t *testing.T) {
	g, err := NewGrid(GridConfig{
		Clusters: []ClusterSpec{{Name: "c0", Nodes: 1}},
		Registry: fastReg(),
		Node: NodeConfig{
			Bench:       tfib{N: 7, Leaf: 20 * time.Microsecond},
			BenchWork:   float64(fibLeaves(7)),
			BenchBudget: 2, // rerun quickly for the test
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	// medianSpeed is the median of the node's next three benchmark
	// rounds. Each round overwrites the reported speed, and wall-clock
	// measurements do not repeat exactly, so a changed value is a new
	// round. The same node is read before and after the load: two nodes'
	// wall-clock benchmarks compete for whatever CPU the rest of the
	// test run leaves, one node's successive rounds share it.
	last := 0.0
	medianSpeed := func() float64 {
		var rounds []float64
		deadline := time.Now().Add(5 * time.Second)
		for len(rounds) < 3 {
			if s := nodes[0].Report().Speed; s > 0 && s != last {
				rounds = append(rounds, s)
				last = s
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s benchmarked %d rounds in 5s, want 3", nodes[0].ID(), len(rounds))
			}
			time.Sleep(5 * time.Millisecond)
		}
		sort.Float64s(rounds)
		return rounds[1]
	}
	before := medianSpeed()
	nodes[0].SetLoadFactor(3)
	if after := medianSpeed(); after >= before*0.7 {
		t.Errorf("speed under load %.0f not clearly below unloaded %.0f", after, before)
	}
}

func TestCrashedClusterCapacityUnavailable(t *testing.T) {
	g := testGrid(t,
		ClusterSpec{Name: "c0", Nodes: 2},
		ClusterSpec{Name: "c1", Nodes: 2},
	)
	if _, err := g.StartNodes("c1", 1); err != nil {
		t.Fatal(err)
	}
	killed := g.CrashCluster("c1")
	if killed != 1 {
		t.Fatalf("killed %d, want 1", killed)
	}
	// Provisioning can only use the surviving cluster now.
	added := g.Provision(4, 0, nil)
	if added != 2 {
		t.Fatalf("added %d after cluster crash, want 2 (c0 only)", added)
	}
	for _, n := range g.Nodes() {
		if n.Cluster() == "c1" {
			t.Fatalf("node revived in crashed cluster: %s", n.ID())
		}
	}
}

func TestFutureAccessors(t *testing.T) {
	f := &Future{}
	if f.Done() || f.Value() != nil || f.Err() != nil || f.Int() != 0 || f.Float() != 0 {
		t.Fatal("zero future should be empty")
	}
	if !f.complete(7, nil) {
		t.Fatal("first complete failed")
	}
	if f.complete(9, nil) {
		t.Fatal("duplicate complete succeeded")
	}
	if f.Int() != 7 || f.Float() != 7 {
		t.Fatalf("accessors: %d %f", f.Int(), f.Float())
	}
	f.Wait() // already done: returns immediately
	failed := &Future{}
	failed.complete(7, errors.New("boom"))
	if v, err := failed.Result(); v != nil || err == nil || err.Error() != "boom" {
		t.Fatalf("failed future = %v, %v, want nil, boom", v, err)
	}
	f2 := &Future{} // no channel: Wait polls
	go func() {
		time.Sleep(20 * time.Millisecond)
		f2.complete(1.5, nil)
	}()
	f2.Wait()
	if f2.Float() != 1.5 {
		t.Fatalf("Float = %v", f2.Float())
	}
	root := &Future{notify: make(chan struct{})} // a Submit root's
	go func() {
		time.Sleep(20 * time.Millisecond)
		root.complete(3, nil)
	}()
	root.Wait()
	if root.Int() != 3 || root.complete(4, nil) {
		t.Fatalf("root future = %d after a refused duplicate, want 3", root.Int())
	}
}

// Several goroutines race to complete one future while others wait on
// it: exactly one write wins, and every waiter sees it.
func TestFutureWaitersAndWriters(t *testing.T) {
	for round := 0; round < 50; round++ {
		f := &Future{notify: make(chan struct{})}
		var wins atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(2)
			go func(w int) {
				defer wg.Done()
				if f.complete(w, nil) {
					wins.Add(1)
				}
			}(w)
			go func() {
				defer wg.Done()
				f.Wait()
				if !f.Done() {
					t.Error("Wait returned on a pending future")
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d completions won, want 1", round, wins.Load())
		}
	}
}

// TestSubCoordinatorLinkModel pins where the emulated network places a
// cluster's sub-coordinator: inside the cluster. Its nodes reach it over
// the LAN, and its summaries leave through the cluster's own uplink — shaped when the cluster is — instead of
// being modelled as a site of their own.
func TestSubCoordinatorLinkModel(t *testing.T) {
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "fs0", Nodes: 1}, {Name: "fs1", Nodes: 1}},
		LANLatency: time.Millisecond, WANLatency: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sub := topo.SubCoordinatorEndpoint("coordinator", "fs0")
	lan := transport.LinkParams{Latency: time.Millisecond, Bandwidth: 100e6}
	backbone := transport.LinkParams{Latency: 5 * time.Millisecond, Bandwidth: 50e6}
	g.Shape("fs1", 2e6) // somebody else's uplink: must not matter
	for _, tc := range []struct {
		from, to string
		want     transport.LinkParams
	}{
		{"satin:fs0/00", sub, lan},
		{sub, "satin:fs0/00", lan},
		{sub, "coordinator", backbone},
		{"coordinator", sub, backbone},
		{"satin:fs1/00", sub, transport.LinkParams{Latency: 10 * time.Millisecond, Bandwidth: 2e6}},
	} {
		if got := g.link(tc.from, tc.to); got != tc.want {
			t.Errorf("link %s -> %s = %+v, want %+v", tc.from, tc.to, got, tc.want)
		}
	}
	g.Shape("fs0", 1e5)
	shaped := transport.LinkParams{Latency: 5 * time.Millisecond, Bandwidth: 1e5}
	if got := g.link(sub, "coordinator"); got != shaped {
		t.Errorf("summary link of a shaped cluster = %+v, want %+v", got, shaped)
	}
	if got := g.link("satin:fs0/00", sub); got != lan {
		t.Errorf("report link of a shaped cluster = %+v, want the LAN %+v", got, lan)
	}
}

// TestCloseBusyGridKeepsStealsOffClosedEndpoints: Close used to kill
// the nodes one after another, so the survivors kept stealing from
// endpoints already detached and a healthy run ended with
// wire/send_err/steal and steal-reply counts (21 to 29 over these
// twenty rounds). Closing in two phases (every node halts, then every
// endpoint closes) must leave both where they were. The grid is closed
// the moment a small job returns, which is when all four nodes are out
// stealing, over fast links so that they ask often.
func TestCloseBusyGridKeepsStealsOffClosedEndpoints(t *testing.T) {
	stealErrs := func() uint64 { return obs.Default.Total("wire/send_err/steal") }
	before := stealErrs()
	for round := 0; round < 20; round++ {
		g, err := NewGrid(GridConfig{
			Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}, {Name: "c1", Nodes: 2}},
			LANLatency: 20 * time.Microsecond,
			WANLatency: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var master *Node
		for _, c := range []ClusterID{"c0", "c1"} {
			nodes, err := g.StartNodes(c, 2)
			if err != nil {
				g.Close()
				t.Fatal(err)
			}
			if master == nil {
				master = nodes[0]
			}
		}
		if v, err := master.Run(tfib{N: 10}); err != nil || v != fibLeaves(10) {
			t.Errorf("round %d: fib(10) = %v, %v", round, v, err)
		}
		g.Close()
	}
	if after := stealErrs(); after != before {
		t.Fatalf("closing twenty grids of stealing nodes raised wire/send_err/steal* from %d to %d", before, after)
	}
}
