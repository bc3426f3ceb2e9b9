package satin

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wirefmt"
)

// tspawnN spawns N trivial children and syncs — the spawn/sync hot
// path the lock-free deque exists for.
type tspawnN struct{ N int }

func (s tspawnN) Execute(ctx *Context) (any, error) {
	for i := 0; i < s.N; i++ {
		ctx.Spawn(tnop{})
	}
	return s.N, ctx.Sync()
}

func init() { Register(tspawnN{}) }

// BenchmarkSpawnSync measures end-to-end spawn+execute+sync throughput
// on a single node: one op is one task spawning 256 children. The
// deque push/pop on this path is lock-free; before the refactor every
// spawn and pop went through the node's big mutex.
func BenchmarkSpawnSync(b *testing.B) {
	g, err := NewGrid(GridConfig{
		Clusters: []ClusterSpec{{Name: "c0", Nodes: 1}},
		Registry: fastReg(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		b.Fatal(err)
	}
	n := nodes[0]
	if _, err := n.Run(tspawnN{N: 1}); err != nil { // warm up
		b.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(tspawnN{N: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// tfeed spawns N no-op children and then holds its worker until
// released, so the children can only leave through thieves. Root task
// only: the channel keeps it off the wire.
type tfeed struct {
	N       int
	Release chan struct{}
}

func (f tfeed) Execute(ctx *Context) (any, error) {
	for i := 0; i < f.N; i++ {
		ctx.Spawn(tnop{})
	}
	<-f.Release
	return f.N, ctx.Sync()
}

// BenchmarkLocalStealRoundTrip measures a granted local steal as the
// runtime performs it: two nodes of one cluster over the default links
// (200 µs each way), the master pinned inside a task whose b.N children
// sit on its deque, the other node's worker stealing them one at a
// time. One op is one granted steal: request, reply, adoption, the
// no-op's execution and its result frame. It read 2.3 ms while a link
// hop slept a whole netpoller millisecond, and reads about 0.5 ms now.
func BenchmarkLocalStealRoundTrip(b *testing.B) {
	g, err := NewGrid(GridConfig{Clusters: []ClusterSpec{{Name: "c0", Nodes: 2}}})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		b.Fatal(err)
	}
	master, thief := nodes[0], nodes[1]
	if _, err := master.Run(tspawnN{N: 1}); err != nil { // warm up; membership settles
		b.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	release := make(chan struct{})
	want := thief.StealStats().Hits + int64(b.N)
	b.ResetTimer()
	fut := master.Submit(tfeed{N: b.N, Release: release})
	for thief.StealStats().Hits < want {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	close(release)
	fut.Wait()
	if v, err := fut.Result(); err != nil || v != b.N {
		b.Fatalf("feed task = %v, %v", v, err)
	}
}

// tfibCut is fib with a sequential cutoff: subtrees of N <= Cutoff are
// computed inline, so a task is a few microseconds of real work, or
// Delay of sleep where that is set (the shape of apps.Fib and its
// LeafDelay, which this package cannot import).
type tfibCut struct {
	N, Cutoff int
	Delay     time.Duration
}

func (f tfibCut) Execute(ctx *Context) (any, error) {
	if f.N <= f.Cutoff {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		return fibLeaves(f.N), nil
	}
	a := ctx.Spawn(tfibCut{N: f.N - 1, Cutoff: f.Cutoff, Delay: f.Delay})
	b := ctx.Spawn(tfibCut{N: f.N - 2, Cutoff: f.Cutoff, Delay: f.Delay})
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return a.Int() + b.Int(), nil
}

func init() { Register(tfibCut{}) }

// BenchmarkStealReplyRoundTrip encodes and decodes the two frames a
// granted steal puts on the wire after the request: the reply that
// carries a registered task and the result that comes back for it. One
// op is both round trips. Each payload goes through the plan its type
// compiled at registration; decoding allocates the owner string and
// each payload's interface box (TestStealReplyRoundTripAllocs).
func BenchmarkStealReplyRoundTrip(b *testing.B) {
	reply := stealReplyMsg{Seq: 7, HasJob: true, Job: jobMsg{ID: 42, Owner: "c0/01", Task: tfibCut{N: 20, Cutoff: 12}}}
	result := resultMsg{ID: 42, Value: fibLeaves(20)}
	var gotReply stealReplyMsg
	var gotResult resultMsg
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = reply.AppendWire(buf[:0]); err != nil {
			b.Fatal(err)
		}
		r := wirefmt.NewReader(buf)
		gotReply = stealReplyMsg{}
		if err := gotReply.DecodeWire(&r); err != nil {
			b.Fatal(err)
		}
		if buf, err = result.AppendWire(buf[:0]); err != nil {
			b.Fatal(err)
		}
		r = wirefmt.NewReader(buf)
		gotResult = resultMsg{}
		if err := gotResult.DecodeWire(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if gotReply != reply || gotResult != result {
		b.Fatalf("round trip gave %+v and %+v, want %+v and %+v", gotReply, gotResult, reply, result)
	}
}

// benchFibGrid runs task from the first node of a grid of clusters x
// nodesPer nodes over the default links, started cluster by cluster so
// that the grid has the shape asked for. Each op starts with every
// other node idle, so it times the whole idle path: the wake frame, the
// steal round trips, the result chain back at the end. steals/op counts
// the jobs that changed nodes.
func benchFibGrid(b *testing.B, clusters, nodesPer int, task tfibCut) {
	var cfg GridConfig
	for c := 0; c < clusters; c++ {
		cfg.Clusters = append(cfg.Clusters, ClusterSpec{Name: ClusterID(fmt.Sprintf("c%d", c)), Nodes: nodesPer})
	}
	g, err := NewGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	var nodes []*Node
	for _, c := range cfg.Clusters {
		started, err := g.StartNodes(c.Name, nodesPer)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, started...)
	}
	want := fibLeaves(task.N)
	if v, err := nodes[0].Run(task); err != nil || v != want { // warm up; membership settles
		b.Fatalf("warm-up = %v, %v", v, err)
	}
	hits := func() (n int64) {
		for _, node := range nodes {
			n += node.StealStats().Hits
		}
		return n
	}
	before := hits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := nodes[0].Run(task); err != nil || v != want {
			b.Fatalf("fib(%d) = %v, %v", task.N, v, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(hits()-before)/float64(b.N), "steals/op")
}

// BenchmarkFibTwoNodes runs fib(27) with cutoff 12 (3,193 tasks of
// about 0.5 µs each plus their leaves) from one node of a two-node
// cluster.
func BenchmarkFibTwoNodes(b *testing.B) {
	benchFibGrid(b, 1, 2, tfibCut{N: 27, Cutoff: 12})
}

// BenchmarkFibTwoClusters runs the adaptive job of the service
// benchmark, fib(19) with cutoff 12 and 3 ms of sleep per leaf (34
// leaves, 102 ms of work), on two clusters of one node each, and on the
// three shapes that say what to expect of it: one node, two nodes of
// one cluster, two clusters of two. A second node 10 ms away should buy
// something; EXPERIMENTS.md "Two clusters of one node" has what it buys.
func BenchmarkFibTwoClusters(b *testing.B) {
	task := tfibCut{N: 19, Cutoff: 12, Delay: 3 * time.Millisecond}
	for _, shape := range [][2]int{{2, 1}, {1, 1}, {1, 2}, {2, 2}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			benchFibGrid(b, shape[0], shape[1], task)
		})
	}
}
