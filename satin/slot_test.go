package satin

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fibCutTasks is the number of tasks tfibCut{N: n, Cutoff: cutoff}
// executes, the root included.
func fibCutTasks(n, cutoff int) int {
	if n <= cutoff {
		return 1
	}
	return 1 + fibCutTasks(n-1, cutoff) + fibCutTasks(n-2, cutoff)
}

// A spawn allocates its boxed task and nothing else: the future and the
// job record are a slot of the parent's frame, reused with the frame.
// One-node fib(27) with cutoff 12 boxes a 24-byte task per spawn plus an
// 8-byte result above 255 in about half of them, so a task costs about
// 28 B; a Future per spawn, as in a 64-per-block slab, put it at 92.
func TestSpawnAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live node benchmark-style test")
	}
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	task := tfibCut{N: 27, Cutoff: 12}
	run := func() {
		if v, err := nodes[0].Run(task); err != nil || v != fibLeaves(task.N) {
			t.Fatalf("fib(%d) = %v, %v", task.N, v, err)
		}
	}
	for i := 0; i < 3; i++ { // every frame depth has its context and slots
		run()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	tasks := runs * fibCutTasks(task.N, task.Cutoff)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks)
	t.Logf("%.1f B and %.2f objects per task", perTask, float64(after.Mallocs-before.Mallocs)/float64(tasks))
	if perTask > 40 {
		t.Fatalf("%.1f B allocated per task, budget 40", perTask)
	}
}

// tspawnSyncRounds runs N rounds of spawn and Sync in one task, each
// child's result checked after its Sync.
type tspawnSyncRounds struct{ N int }

func (r tspawnSyncRounds) Execute(ctx *Context) (any, error) {
	for i := 0; i < r.N; i++ {
		f := ctx.Spawn(tfib{N: i % 8})
		if err := ctx.Sync(); err != nil {
			return nil, err
		}
		if f.Int() != fibLeaves(i%8) {
			return nil, fmt.Errorf("round %d: fib(%d) = %v", i, i%8, f.Value())
		}
	}
	return r.N, nil
}

func init() { Register(tspawnSyncRounds{}) }

// One task execution may spawn any number of children, in one frame or
// over many Syncs: past its fifth block a frame adds 64-slot blocks for
// as long as it spawns, however many blocks it already has.
func TestManySpawnsInOneTask(t *testing.T) {
	const spawns = 5000 // about 80 blocks
	for _, task := range []Task{tspawnN{N: spawns}, tspawnSyncRounds{N: spawns}} {
		t.Run(fmt.Sprintf("%T", task), func(t *testing.T) {
			g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
			nodes, err := g.StartNodes("c0", 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // the second run reuses the pooled context
				if v, err := nodes[0].Run(task); err != nil || v != spawns {
					t.Fatalf("run %d = %v, %v, want %d", i, v, err, spawns)
				}
			}
		})
	}
}

// tstrayParent spawns N counting children and returns without syncing:
// its frame's slots are still queued on the deque when it returns.
type tstrayParent struct{ N int }

// strayFuts are tstrayParent's futures, kept past its return only so
// that the test can check no later spawn overwrote them.
var (
	strayMu   sync.Mutex
	strayFuts []*Future
	strayRan  [16]atomic.Int32
)

func (p tstrayParent) Execute(ctx *Context) (any, error) {
	strayMu.Lock()
	defer strayMu.Unlock()
	strayFuts = strayFuts[:0]
	for i := 0; i < p.N; i++ {
		strayFuts = append(strayFuts, ctx.Spawn(tstraySpawner{V: i}))
	}
	return p.N, nil
}

// tstraySpawner counts its run and spawns and syncs one child of its
// own, which takes a slot from whichever context the worker hands it.
type tstraySpawner struct{ V int }

func (s tstraySpawner) Execute(ctx *Context) (any, error) {
	strayRan[s.V].Add(1)
	ctx.Spawn(tnop{})
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return s.V, nil
}

func init() {
	Register(tstrayParent{})
	Register(tstraySpawner{})
}

// The slots of a frame whose task returned unsynced are not reused
// while their jobs are queued. The worker runs the strays right after
// their parent returns, each with the context the parent gave back: had
// that context kept its slots, each stray's own spawn would overwrite
// the record of a stray still on the deque, which would then never run
// while another ran twice.
func TestUnsyncedFrameSlotsNotReused(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	const strays = 12 // the first two blocks of a frame
	for i := range strayRan {
		strayRan[i].Store(0)
	}
	if v, err := nodes[0].Run(tstrayParent{N: strays}); err != nil || v != strays {
		t.Fatalf("parent = %v, %v", v, err)
	}
	strayMu.Lock()
	futs := append([]*Future(nil), strayFuts...)
	strayMu.Unlock()
	waitUntil(t, "every stray has resolved", func() bool {
		for _, f := range futs {
			if !f.Done() {
				return false
			}
		}
		return true
	})
	if _, err := nodes[0].Run(tfib{N: 10}); err != nil { // reuse every pooled context
		t.Fatal(err)
	}
	for i, f := range futs {
		if n := strayRan[i].Load(); n != 1 {
			t.Errorf("stray %d ran %d times, want 1", i, n)
		}
		if v, err := f.Result(); v != i || err != nil {
			t.Errorf("stray %d's future = %v, %v, want %d", i, v, err, i)
		}
	}
}

// tsyncHeld spawns one slow child, publishes its future, waits for
// Release and syncs.
type tsyncHeld struct {
	Sleep   time.Duration
	Release chan struct{}
}

var (
	heldChild atomic.Pointer[Future]
	inSync    atomic.Bool
)

func (h tsyncHeld) Execute(ctx *Context) (any, error) {
	heldChild.Store(ctx.Spawn(tslow{V: 1, Sleep: h.Sleep}))
	<-h.Release
	inSync.Store(true)
	return nil, ctx.Sync()
}

// A node killed while its worker waits in Sync for a stolen child
// leaves that frame's slots as the kill left them: the kill fails the
// child's future, which stays failed, and no pooled context holds the
// slot for a later spawn to reuse or reset.
func TestKilledSyncAbandonsItsSlots(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	master, thief := nodes[0], nodes[1]
	for i := range slowRuns {
		slowRuns[i].Store(0)
	}
	inSync.Store(false)
	release := make(chan struct{})
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open)
	master.Submit(tsyncHeld{Sleep: 50 * time.Millisecond, Release: release})
	waitUntil(t, "the thief runs the child", func() bool {
		return master.heldBy(thief.ID()) == 1 && slowRuns[1].Load() == 1
	})
	open()
	waitUntil(t, "the parent is in Sync", inSync.Load)
	master.Kill() // returns after the worker has exited and pooled its contexts
	f := heldChild.Load()
	if !errors.Is(f.Err(), errNodeStopped) {
		t.Fatalf("stolen child's future after the kill = %v, %v, want %v", f.Value(), f.Err(), errNodeStopped)
	}
	for _, c := range master.ctxFree {
		for _, b := range c.blocks {
			for i := range b {
				s := &b[i]
				if &s.fut == f {
					t.Fatal("the killed frame's slot is pooled for reuse")
				}
				if s.fut.state.Load() != futPending || s.fut.out != nil || s.job.Task != nil || s.job.fut != nil {
					t.Fatalf("a pooled slot was written after its reset: %+v", s.job)
				}
			}
		}
	}
}

// tfailing spawns a failing child, a panicking one and a healthy one,
// optionally holds its worker until Release so that a thief takes the
// first, and syncs.
type tfailing struct{ Release chan struct{} }

func (p tfailing) Execute(ctx *Context) (any, error) {
	ctx.Spawn(terr{Boom: true})
	ctx.Spawn(terr{Boom: false})
	ok := ctx.Spawn(tfib{N: 5})
	if p.Release != nil {
		<-p.Release
	}
	err := ctx.Sync()
	if ok.Int() != fibLeaves(5) {
		return nil, errors.New("the healthy child's result is lost")
	}
	return nil, err
}

// A child's error reaches its parent's Sync, the first spawned first,
// whether the child ran at home or on a thief.
func TestChildErrorReachesSync(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
		nodes, err := g.StartNodes("c0", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].Run(tfailing{}); err == nil || err.Error() != "boom" {
			t.Fatalf("Sync = %v, want boom", err)
		}
	})
	t.Run("stolen", func(t *testing.T) {
		g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
		nodes, err := g.StartNodes("c0", 2)
		if err != nil {
			t.Fatal(err)
		}
		master, thief := nodes[0], nodes[1]
		release := make(chan struct{})
		open := sync.OnceFunc(func() { close(release) })
		t.Cleanup(open)
		fut := master.Submit(tfailing{Release: release})
		waitUntil(t, "the thief has taken the failing child", func() bool { return thief.StealStats().Hits >= 1 })
		open()
		fut.Wait()
		if err := fut.Err(); err == nil || err.Error() != "boom" {
			t.Fatalf("Sync = %v, want boom", err)
		}
	})
}
