package satin

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport/wire"
)

// inbox funnels jobs that arrive OFF the worker goroutine — adopted
// steal replies, reclaimed orphans, Submit roots — into
// the worker's world. The lock-free deque has a single owner (the
// worker); everyone else appends here and the worker drains between
// tasks. Contention is rare (one entry per remote event, not per
// spawn), so a plain mutex-guarded slice is the right tool.
type inbox struct {
	mu    sync.Mutex
	size  atomic.Int32 // mirror of len(jobs): the worker's lock-free emptiness probe
	jobs  []*jobMsg
	spare []*jobMsg // drained buffer awaiting reuse (double buffering)
}

func (b *inbox) add(j *jobMsg) {
	b.mu.Lock()
	b.jobs = append(b.jobs, j)
	b.size.Store(int32(len(b.jobs)))
	b.mu.Unlock()
}

func (b *inbox) drain() []*jobMsg {
	if b.size.Load() == 0 {
		// The common case on the worker's pop path: nothing arrived, no
		// lock taken. A racing add is not lost — its wakeUp lands after
		// the append, so the worker re-polls.
		return nil
	}
	b.mu.Lock()
	js := b.jobs
	b.jobs = b.spare
	b.spare = nil
	b.size.Store(0)
	b.mu.Unlock()
	return js
}

// recycle returns a drained buffer for reuse once its entries have
// been consumed, so steady-state drains allocate nothing.
func (b *inbox) recycle(js []*jobMsg) {
	clear(js) // release task payload references
	b.mu.Lock()
	if b.spare == nil {
		b.spare = js[:0]
	}
	b.mu.Unlock()
}

// steal takes the oldest inbox entry. Thieves fall back here when the
// deque is empty and the worker is pinned inside a task: a Submit
// meanwhile must still be visible to idle peers (the inbox is not
// worker-only the way the deque bottom is, so handing entries out is
// safe).
func (b *inbox) steal() (*jobMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.jobs) == 0 {
		return nil, false
	}
	j := b.jobs[0]
	b.jobs[0] = nil // release the payload reference
	b.jobs = b.jobs[1:]
	b.size.Store(int32(len(b.jobs)))
	return j, true
}

// drainInbox moves inbox arrivals onto the deque. Worker goroutine
// only: pushing is an owner operation.
func (n *Node) drainInbox() {
	js := n.inbox.drain()
	if js == nil {
		return
	}
	for _, j := range js {
		n.jobs.Push(j)
	}
	n.inbox.recycle(js)
}

// worker is the node's single computation goroutine: run a due speed
// benchmark, else pop the newest job (work-first, splitting subtrees
// down to leaves), else look for work elsewhere (findWork: a steal
// attempt, then a short park that any arrival or a victim's wake frame
// cuts short).
func (n *Node) worker() {
	defer n.wg.Done()
	defer n.abandonSteal()
	for {
		if n.stopped.Load() {
			return
		}
		// A leaving node lets its outstanding steal request come home
		// first (findWork below resumes it): the reply must find an
		// endpoint to arrive at.
		leaving := n.leaving.Load() && !n.attempt.pending
		if leaving {
			if n.tryFinishLeave() {
				return
			}
		}
		if n.stats.benchDue() {
			n.runBench()
			continue
		}
		j, ok := n.popNewest()
		if !ok && leaving {
			// Deque drained but self-owned work is still outstanding:
			// wait for results (or reclaims) instead of spinning.
			n.waitForWork(2 * time.Millisecond)
			continue
		}
		if !ok {
			j, ok = n.findWork()
		}
		if ok {
			n.pinned.Store(true)
			n.executeJob(j)
			n.pinned.Store(false)
		}
	}
}

// popNewest takes the newest job: inbox arrivals first land on the
// deque, then the bottom is popped. Worker goroutine only (owner
// operations throughout) — Context.Sync qualifies, it runs inside
// task code on the worker.
func (n *Node) popNewest() (*jobMsg, bool) {
	n.drainInbox()
	return n.jobs.PopBottom()
}

func (n *Node) wakeUp() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// interWaitThreshold: waiting on an outstanding wide-area steal counts
// as inter-cluster communication overhead only once the steal has been
// in flight this long — a healthy WAN round trip stays idle time, a
// saturated link shows up as inter overhead.
const interWaitThreshold = 50 * time.Millisecond

// enterState switches the worker's accounting bucket.
func (n *Node) enterState(next int) { n.stats.enterState(next) }

// waitForWork parks the worker briefly. Waiting on a wide-area steal
// that should long have returned means the WAN path is congested,
// which the monitoring must surface as inter-cluster overhead;
// ordinary round-trip waits stay idle time.
func (n *Node) waitForWork(d time.Duration) {
	if n.members.asyncStalled(n.monotonicSeconds(), interWaitThreshold.Seconds()) {
		n.enterState(int(metrics.Inter))
	} else {
		n.enterState(stateIdle)
	}
	select {
	case <-n.wake:
	case <-n.wait.arm(d):
	case <-n.stopCh:
	}
	n.wait.disarm()
	n.enterState(stateIdle)
}

// getContext / putContext keep a small free list of execution
// contexts, each with the spawn slots of its frame. Worker goroutine
// only (executeJob and runBench run there, including Sync's nested
// executions), so no lock. A Context and the futures its Spawn returned
// are invalid once its task returns — task code must not retain them.
func (n *Node) getContext(bench bool) *Context {
	if k := len(n.ctxFree); k > 0 {
		c := n.ctxFree[k-1]
		n.ctxFree = n.ctxFree[:k-1]
		c.benchMode = bench
		return c
	}
	return &Context{node: n, benchMode: bench}
}

func (n *Node) putContext(c *Context) {
	c.release()
	if len(n.ctxFree) < 32 {
		n.ctxFree = append(n.ctxFree, c)
	}
}

// executeJob runs one job and leaves the worker in the accounting
// state it found: Idle under the worker loop, Busy when Sync runs a
// child inside its parent, where both transitions are then free.
//
// A spawned job that never left this node is a slot in a frame further
// up this worker's stack: completing its future is the last thing done
// with it, since the frame may reuse the slot as soon as it sees the
// result.
func (n *Node) executeJob(j *jobMsg) {
	prev := n.stats.state()
	n.enterState(int(metrics.Busy))
	ctx := n.getContext(false)
	val, err := safeExecute(j.Task, ctx)
	n.putContext(ctx)
	n.enterState(prev)
	if errors.Is(err, errNodeStopped) {
		// Execution was cut short by Kill: this is not a task result.
		// Say nothing; the owner recomputes the job when the failure
		// detector reports us dead.
		return
	}
	if j.Owner == n.cfg.ID {
		if j.ID == 0 {
			// Never left this node: the only one waiting on it is a frame
			// of this worker, further up the stack.
			j.fut.complete(val, err)
		} else {
			n.completeLocal(j.ID, val, err)
		}
		return
	}
	res := resultMsg{ID: j.ID, Value: val, Err: errString(err)}
	if sendErr := wire.Send(n.wc, satinEP(j.Owner), res); sendErr != nil {
		// Unregistered result type: deliver the error instead so the
		// owner's sync does not hang.
		wire.Send(n.wc, satinEP(j.Owner), resultMsg{ID: j.ID, Err: sendErr.Error()})
	}
}

// safeExecute converts panics in task code into errors; a crashing task
// must not take the whole node down (the computation would deadlock).
func safeExecute(t Task, ctx *Context) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("satin: task panic: %v", r)
		}
	}()
	return t.Execute(ctx)
}

// runBench runs the application-specific speed benchmark and re-arms
// it at the frequency the overhead budget allows.
func (n *Node) runBench() {
	n.stats.clearBench()
	bench := n.cfg.Bench
	if bench == nil {
		return
	}
	n.enterState(int(metrics.Bench))
	start := time.Now()
	ctx := n.getContext(true)
	_, _ = safeExecute(bench, ctx)
	n.putContext(ctx)
	n.enterState(stateIdle)
	dur := time.Since(start).Seconds()
	if dur <= 0 {
		dur = 1e-9
	}
	n.stats.setSpeed(n.cfg.BenchWork / dur)
	interval := time.Duration(dur / n.cfg.BenchBudget * float64(time.Second))
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	time.AfterFunc(interval, func() {
		if !n.stopped.Load() && !n.leaving.Load() {
			n.stats.armBench()
		}
		n.wakeUp()
	})
}
