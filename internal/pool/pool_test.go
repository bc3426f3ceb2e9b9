package pool

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topo"
)

func testTopo(clusters, nodes int) topo.Topology {
	var t topo.Topology
	names := []core.ClusterID{"fs0", "fs1", "fs2", "fs3"}
	for i := 0; i < clusters; i++ {
		t.Clusters = append(t.Clusters, topo.Cluster{
			ID: names[i], Nodes: nodes, Speed: 1,
			LANLatency: 1e-4, LANBandwidth: 1e8,
			WANLatency: 1e-3, UplinkBandwidth: 5e7,
		})
	}
	return t
}

func newArbiter(t *testing.T, clusters, nodes int, ttl time.Duration) *Arbiter {
	t.Helper()
	a, err := New(testTopo(clusters, nodes), Config{DemandTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func take(t *testing.T, c *Client, n int) []sched.NodeRef {
	t.Helper()
	return c.RequestBandwidth(n, nil, nil, 0)
}

// TestWorkConserving: a lone client may take every node — a single job
// still gets the whole grid, exactly as with a private pool.
func TestWorkConserving(t *testing.T) {
	a := newArbiter(t, 2, 4, time.Minute)
	c, err := a.Register("j1", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := take(t, c, 8); len(got) != 8 {
		t.Fatalf("lone client should get all 8 nodes, got %d", len(got))
	}
	if c.Held() != 8 {
		t.Fatalf("held accounting wrong: %d", c.Held())
	}
}

// TestContendedFairShare is the arbitration core: once a second client
// has live unmet demand below its share, the hog gets nothing more,
// sees reclaim pressure for its surplus, and every node it releases is
// claimable by the starved client.
func TestContendedFairShare(t *testing.T) {
	a := newArbiter(t, 2, 4, time.Minute)
	hog, _ := a.Register("hog", 1, 0)
	if got := take(t, hog, 8); len(got) != 8 {
		t.Fatalf("setup: hog should hold the grid, got %d", len(got))
	}

	late, _ := a.Register("late", 1, 0)
	if got := take(t, late, 4); len(got) != 0 {
		t.Fatalf("empty pool grants nothing, got %d", len(got))
	}
	// late is now needy below its share (4): the hog is over share and
	// must feel pressure for its surplus...
	if p := hog.Pressure(); p != 4 {
		t.Fatalf("hog pressure: want 4 (8 held - 4 share), got %d", p)
	}
	// ...and may not grow.
	if got := take(t, hog, 1); len(got) != 0 {
		t.Fatalf("over-share client must be denied while others starve, got %d", len(got))
	}
	// The hog yields two nodes; the needy client can claim them, the
	// hog still cannot.
	held := hog.heldRefs()
	hog.Release(held[0])
	hog.Release(held[1])
	if got := take(t, hog, 2); len(got) != 0 {
		t.Fatalf("freed nodes are reserved for the starved client, hog got %d", len(got))
	}
	if got := take(t, late, 4); len(got) != 2 {
		t.Fatalf("starved client should claim the freed nodes, got %d", len(got))
	}
	// Once late reaches its share, it is no longer needy; remaining
	// demand above the share does not freeze the pool.
	held = hog.heldRefs()
	hog.Release(held[0])
	hog.Release(held[1])
	if got := take(t, late, 2); len(got) != 2 {
		t.Fatalf("late should reach its share, got %d", len(got))
	}
	if p := hog.Pressure(); p != 0 {
		t.Fatalf("no needy client left, hog pressure should be 0, got %d", p)
	}
	// Work-conserving again: the hog frees a node and — with nobody
	// needy — may immediately take it back despite being at share.
	hog.Release(hog.heldRefs()[0])
	if got := take(t, hog, 1); len(got) != 1 {
		t.Fatalf("work-conserving again once nobody is needy, got %d", len(got))
	}
}

// TestDemandExpires: a client that stopped bidding loses its claim on
// contention after DemandTTL, so the pool never freezes on stale want.
func TestDemandExpires(t *testing.T) {
	a := newArbiter(t, 1, 4, 30*time.Millisecond)
	hog, _ := a.Register("hog", 1, 0)
	take(t, hog, 4)
	late, _ := a.Register("late", 1, 0)
	take(t, late, 2) // unmet: late is needy
	if got := take(t, hog, 1); len(got) != 0 {
		t.Fatal("hog must be denied while demand is live")
	}
	held := hog.heldRefs()
	hog.Release(held[0])
	time.Sleep(60 * time.Millisecond) // demand expires
	if got := take(t, hog, 1); len(got) != 1 {
		t.Fatal("expired demand must not block the pool")
	}
}

// TestMaxNodesCap: the per-client cap bounds even work-conserving
// growth.
func TestMaxNodesCap(t *testing.T) {
	a := newArbiter(t, 1, 8, time.Minute)
	c, _ := a.Register("j", 1, 3)
	if got := take(t, c, 8); len(got) != 3 {
		t.Fatalf("cap 3 must bound the grant, got %d", len(got))
	}
}

// TestCloseReleasesEverything: closing a client frees its nodes for
// others and drops its accounting — the cancel path's guarantee.
func TestCloseReleasesEverything(t *testing.T) {
	a := newArbiter(t, 1, 4, time.Minute)
	c1, _ := a.Register("j1", 1, 0)
	take(t, c1, 4)
	c2, _ := a.Register("j2", 1, 0)
	released := a.Released()
	c1.Close()
	select {
	case <-released:
	default:
		t.Fatal("Close must signal the release")
	}
	if got := take(t, c2, 4); len(got) != 4 {
		t.Fatalf("closed client's nodes must be claimable, got %d", len(got))
	}
	if a.Free() != 0 {
		t.Fatalf("free count wrong: %d", a.Free())
	}
}

// TestReleaseWakesWaiter: a waiter that took the signal before the pool
// ran dry wakes on the next release, and each release arms a new one.
func TestReleaseWakesWaiter(t *testing.T) {
	a := newArbiter(t, 1, 2, time.Minute)
	c, _ := a.Register("j", 1, 0)
	refs := take(t, c, 2)
	released := a.Released()
	woke := make(chan struct{})
	go func() { <-released; close(woke) }()
	c.Release(refs[0])
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("a release did not wake the waiter")
	}
	next := a.Released()
	select {
	case <-next:
		t.Fatal("the signal after a release must be a fresh one")
	default:
	}
	c.Release(refs[1])
	<-next
}

// TestMarkDeadShrinksCapacity: dead nodes leave both the pool and the
// fair-share arithmetic.
func TestMarkDeadShrinksCapacity(t *testing.T) {
	a := newArbiter(t, 1, 4, time.Minute)
	c, _ := a.Register("j", 1, 0)
	refs := take(t, c, 2)
	released := a.Released()
	a.MarkDead(refs[0].Node)
	select {
	case <-released:
	default:
		t.Fatal("MarkDead must signal the release")
	}
	a.MarkDead(refs[0].Node) // idempotent
	if a.Capacity() != 3 {
		t.Fatalf("capacity after one death: want 3, got %d", a.Capacity())
	}
	if c.Held() != 1 {
		t.Fatalf("dead node must leave the client's held set, got %d", c.Held())
	}
}

// heldRefs snapshots the client's held refs for tests.
func (c *Client) heldRefs() []sched.NodeRef {
	c.arb.mu.Lock()
	defer c.arb.mu.Unlock()
	out := make([]sched.NodeRef, 0, len(c.held))
	for _, ref := range c.held {
		out = append(out, ref)
	}
	return out
}
