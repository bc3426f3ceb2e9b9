package satin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tpayload carries a heap payload whose collectability the retention
// test tracks through a finalizer. It runs on one node and is not
// registered: a pointer field has no payload codec.
type tpayload struct{ Data *[]byte }

func (p tpayload) Execute(*Context) (any, error) { return len(*p.Data), nil }

// tnop is a trivial task used to flush the worker past previous jobs.
type tnop struct{}

func (tnop) Execute(*Context) (any, error) { return nil, nil }

// retentionCollected counts finalized payloads across a test run.
var retentionCollected atomic.Int32

// tspawnPayloads spawns Count payload-carrying children in one burst —
// the shape that made the old slice-backed deque retain every vacated
// slot of the burst.
type tspawnPayloads struct{ Count int }

func (s tspawnPayloads) Execute(ctx *Context) (any, error) {
	for i := 0; i < s.Count; i++ {
		data := make([]byte, 1<<16)
		p := &data
		runtime.SetFinalizer(p, func(*[]byte) { retentionCollected.Add(1) })
		ctx.Spawn(tpayload{Data: p})
	}
	return nil, ctx.Sync()
}

func init() {
	Register(tnop{})
	Register(tspawnPayloads{})
}

// TestCompletedJobPayloadCollectable pins the fix for the job-payload
// retention bug: the old slice-backed deque shrank with s = s[:len-1]
// and never zeroed the vacated slot, so a completed job's task (and
// its captured data) stayed reachable from the backing array. The
// Chase–Lev deque zeroes consumed slots, and the inbox releases its
// references on drain/steal, so payloads become garbage as soon as
// their jobs complete.
func TestCompletedJobPayloadCollectable(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := nodes[0]

	const jobs = 32
	retentionCollected.Store(0)
	if _, err := n.Run(tspawnPayloads{Count: jobs}); err != nil {
		t.Fatal(err)
	}
	// Push unrelated work through so no payload job is the most recent
	// thing on the worker's stack.
	if _, err := n.Run(tnop{}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for retentionCollected.Load() < jobs && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := retentionCollected.Load(); got < jobs {
		t.Fatalf("only %d/%d completed-job payloads were collected; the runtime retains references", got, jobs)
	}
}

// TestConcurrentSubmitExactlyOnce races many submitters against the
// worker and the steal handlers: every submitted job must execute
// exactly once (the inbox funnels non-owner producers into the
// single-owner deque without dropping or duplicating).
func TestConcurrentSubmitExactlyOnce(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := nodes[0]

	const submitters, perSubmitter = 8, 50
	futs := make([][]*Future, submitters)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				futs[s] = append(futs[s], n.Submit(tfib{N: 2}))
			}
		}(s)
	}
	wg.Wait()
	for s := range futs {
		for i, f := range futs[s] {
			f.Wait()
			if v, err := f.Result(); err != nil || v != 2 {
				t.Fatalf("submitter %d job %d: got (%v, %v), want (2, nil)", s, i, v, err)
			}
		}
	}
}
