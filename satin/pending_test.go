package satin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pendingPeak is the largest pending table any tpeek task saw on its
// own node while it ran.
var pendingPeak atomic.Int64

func notePendingPeak(n *Node) {
	k := int64(n.pendingLen())
	for {
		old := pendingPeak.Load()
		if k <= old || pendingPeak.CompareAndSwap(old, k) {
			return
		}
	}
}

// tpeek samples its node's pending table from inside the worker, which
// is where a table filled per spawn would be at its fullest: a leaf
// runs while its younger siblings still sit on the deque.
type tpeek struct{}

func (tpeek) Execute(ctx *Context) (any, error) {
	notePendingPeak(ctx.node)
	return nil, nil
}

// tspawnPeek is tspawnN with sampling children.
type tspawnPeek struct{ N int }

func (s tspawnPeek) Execute(ctx *Context) (any, error) {
	for i := 0; i < s.N; i++ {
		ctx.Spawn(tpeek{})
	}
	return s.N, ctx.Sync()
}

func init() {
	Register(tpeek{})
	Register(tspawnPeek{})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A job that never leaves its node is never registered: on one node
// the pending table holds the submitted root and nothing else, however
// many children that root spawns.
func TestPendingHoldsOnlyTheRootOnOneNode(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := nodes[0]
	pendingPeak.Store(0)
	const runs = 5
	for i := 0; i < runs; i++ {
		if v, err := n.Run(tspawnPeek{N: 256}); err != nil || v != 256 {
			t.Fatalf("run %d = %v, %v", i, v, err)
		}
	}
	if peak := pendingPeak.Load(); peak != 1 {
		t.Errorf("pending table peaked at %d entries over %d runs of 256 spawns, want 1 (the root)", peak, runs)
	}
	if got := n.registrations(); got != runs {
		t.Errorf("%d registrations, want %d (one per root)", got, runs)
	}
	if got := n.pendingLen(); got != 0 {
		t.Errorf("%d pending entries left after the runs", got)
	}
}

// tfeedThen is tfeed with a second act: N children that can only leave
// through thieves (the worker is held until released), then M more
// that the worker mostly runs itself.
type tfeedThen struct {
	N, M    int
	Release chan struct{}
}

func (f tfeedThen) Execute(ctx *Context) (any, error) {
	for i := 0; i < f.N; i++ {
		ctx.Spawn(tnop{})
	}
	<-f.Release
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	for i := 0; i < f.M; i++ {
		ctx.Spawn(tnop{})
	}
	return f.N + f.M, ctx.Sync()
}

// On two nodes the pending table gets one entry per root and one per
// granted steal, whatever the number of spawns: registration happens
// when a job leaves, and only then.
func TestPendingRegistersAtSteal(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	master, thief := nodes[0], nodes[1]
	const n, m = 12, 256
	release := make(chan struct{})
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open) // a held worker would hang the grid's Close
	fut := master.Submit(tfeedThen{N: n, M: m, Release: release})
	waitUntil(t, "the thief has taken all the held children", func() bool {
		return thief.StealStats().Hits >= n
	})
	open()
	fut.Wait()
	if v, err := fut.Result(); err != nil || v != n+m {
		t.Fatalf("feed task = %v, %v", v, err)
	}
	hits := master.StealStats().Hits + thief.StealStats().Hits
	regs := master.registrations() + thief.registrations()
	if regs != uint64(hits)+1 {
		t.Errorf("%d registrations for %d granted steals and 1 root (%d spawns)", regs, hits, n+m)
	}
	if got := master.pendingLen() + thief.pendingLen(); got != 0 {
		t.Errorf("%d pending entries left after the run", got)
	}
}

// tslow takes Sleep to return V, counting its executions per V. Killed
// meanwhile it gives up the way a task inside Sync does, so that the
// dead node reports nothing.
type tslow struct {
	V     int
	Sleep time.Duration
}

var slowRuns [3]atomic.Int32

func (s tslow) Execute(ctx *Context) (any, error) {
	slowRuns[s.V].Add(1)
	for end := time.Now().Add(s.Sleep); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if ctx.node.Stopped() {
			return nil, errNodeStopped
		}
	}
	return s.V, nil
}

// theldPair spawns two slow children and holds its worker until
// released, then sums them.
type theldPair struct {
	Sleep   time.Duration
	Release chan struct{}
}

func (h theldPair) Execute(ctx *Context) (any, error) {
	a := ctx.Spawn(tslow{V: 1, Sleep: h.Sleep})
	b := ctx.Spawn(tslow{V: 2, Sleep: h.Sleep})
	<-h.Release
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return a.Int() + b.Int(), nil
}

func init() { Register(tslow{}) }

// The entry written when a job is stolen is what recomputation runs
// on: the thief is killed while it holds the job, the owner finds the
// entry under the dead node's name, runs the job itself, and the sum
// comes out exact.
func TestKilledThiefsJobIsRecomputed(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	master, thief := nodes[0], nodes[1]
	for i := range slowRuns {
		slowRuns[i].Store(0)
	}
	release := make(chan struct{})
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open) // a held worker would hang the grid's Close
	fut := master.Submit(theldPair{Sleep: 100 * time.Millisecond, Release: release})
	waitUntil(t, "the thief holds one child", func() bool { return master.heldBy(thief.ID()) == 1 })
	// The root and the stolen child; the other child is on the deque,
	// spawned and not registered.
	if got := master.pendingLen(); got != 2 {
		t.Errorf("%d pending entries with one child stolen and one at home, want 2", got)
	}
	// onSteal records the thief before its reply leaves: a kill before the
	// thief has adopted and started the child would leave one run to count.
	waitUntil(t, "the thief runs it", func() bool { return slowRuns[1].Load() == 1 })
	thief.Kill()
	waitUntil(t, "the owner has reclaimed the dead thief's job", func() bool {
		return master.heldBy(thief.ID()) == 0 && master.heldBy(master.ID()) == 2
	})
	open()
	fut.Wait()
	if v, err := fut.Result(); err != nil || v != 3 {
		t.Fatalf("sum = %v, %v, want 3", v, err)
	}
	if a, b := slowRuns[1].Load(), slowRuns[2].Load(); a != 2 || b != 1 {
		t.Errorf("stolen child ran %d times and the other %d, want 2 (thief, then owner) and 1", a, b)
	}
}

// tstrayLeaver spawns N counting children, asks its own node to leave
// and returns without syncing: the children are self-owned work that no
// table knows about.
type tstrayLeaver struct{ N int }

var strayRuns atomic.Int32

type tstray struct{}

func (tstray) Execute(ctx *Context) (any, error) {
	notePendingPeak(ctx.node)
	strayRuns.Add(1)
	return nil, nil
}

func (s tstrayLeaver) Execute(ctx *Context) (any, error) {
	for i := 0; i < s.N; i++ {
		ctx.Spawn(tstray{})
	}
	ctx.node.leaving.Store(true)
	return s.N, nil
}

// A leaving node finishes the self-owned work on its deque before it
// goes, though none of it is in the pending table: the drain finds it.
func TestLeaveFinishesUnregisteredWork(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := nodes[0]
	pendingPeak.Store(0)
	strayRuns.Store(0)
	const strays = 40
	if v, err := n.Run(tstrayLeaver{N: strays}); err != nil || v != strays {
		t.Fatalf("root = %v, %v", v, err)
	}
	waitUntil(t, "the node has left", n.Stopped)
	if got := strayRuns.Load(); got != strays {
		t.Errorf("node left with %d of %d spawned children run", got, strays)
	}
	if peak := pendingPeak.Load(); peak > 1 {
		t.Errorf("pending table held %d entries while the children ran: they were registered", peak)
	}
}

// twhere returns V and records which node ran it.
type twhere struct{ V int }

var (
	whereMu  sync.Mutex
	whereRan []NodeID
)

func (w twhere) Execute(ctx *Context) (any, error) {
	whereMu.Lock()
	whereRan = append(whereRan, ctx.node.ID())
	whereMu.Unlock()
	return w.V, nil
}

// theldOne spawns one twhere child, says so, and holds its worker until
// released; then it syncs and doubles the child's value.
type theldOne struct {
	Spawned chan struct{}
	Release chan struct{}
}

func (h theldOne) Execute(ctx *Context) (any, error) {
	c := ctx.Spawn(twhere{V: 21})
	close(h.Spawned)
	<-h.Release
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return 2 * c.Int(), nil
}

func init() { Register(twhere{}) }

// A leaver that still holds another node's job when it drains drops the
// job, and the owner recomputes it from its pending record when the
// registry reports the departure: the same recomputation a crash gets.
// The job reaches the leaver the way onSteal hands one out (registered
// at the owner with the leaver as holder, adopted into the leaver's
// inbox) while the leaver's worker is pinned inside a task of its own.
// The leaver is started and pinned before the owner exists, so it has
// no steal attempt in flight (a leaver with one lets it settle first,
// and runs what it holds meanwhile instead of draining it), and it has
// the leave signal before the job arrives, so no thief takes the job.
func TestLeaveWithForeignJobIsRecomputed(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	start := func() *Node {
		t.Helper()
		nodes, err := g.StartNodes("c0", 1)
		if err != nil {
			t.Fatal(err)
		}
		return nodes[0]
	}
	whereMu.Lock()
	whereRan = nil
	whereMu.Unlock()

	leaver := start()
	started, pin := make(chan struct{}), make(chan struct{})
	openPin := sync.OnceFunc(func() { close(pin) })
	t.Cleanup(openPin) // a held worker would hang the grid's Close
	pinned := leaver.Submit(tgate{Started: started, Release: pin})
	<-started
	owner := start()
	for _, n := range []*Node{leaver, owner} {
		select {
		case <-n.members.client().Joined():
		case <-time.After(2 * time.Second):
			t.Fatalf("%s's join was never acked", n.ID())
		}
	}
	if err := g.Registry().Signal(leaver.ID(), "leave"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the leaver has the leave signal", leaver.leaving.Load)

	spawned, release := make(chan struct{}), make(chan struct{})
	openRelease := sync.OnceFunc(func() { close(release) })
	t.Cleanup(openRelease)
	fut := owner.Submit(theldOne{Spawned: spawned, Release: release})
	<-spawned
	j, ok := owner.takeOldest()
	if !ok {
		t.Fatal("the spawned child is not on the owner's deque")
	}
	id := owner.registerJob(j.Task, j.fut, leaver.ID())
	leaver.inbox.add(&jobMsg{ID: id, Owner: owner.ID(), Task: j.Task})
	openPin()
	pinned.Wait()
	waitUntil(t, "the leaver has stopped", leaver.Stopped)
	// Nothing but reclaimFrom moves the holder: no holding notice was
	// sent, and the owner's worker is still held inside its root.
	waitUntil(t, "the owner has reclaimed the leaver's job", func() bool {
		return owner.heldBy(leaver.ID()) == 0 && owner.heldBy(owner.ID()) == 2
	})

	openRelease()
	fut.Wait()
	if v, err := fut.Result(); err != nil || v != 42 {
		t.Fatalf("root = %v, %v, want 42", v, err)
	}
	whereMu.Lock()
	defer whereMu.Unlock()
	if len(whereRan) != 1 || whereRan[0] != owner.ID() {
		t.Errorf("the foreign job ran on %v, want once on its owner %s", whereRan, owner.ID())
	}
}
