package satin

import (
	"errors"

	"repro/internal/metrics"
)

// errNodeStopped unblocks Sync on a killed node; the unfinished work is
// recomputed by its owners.
var errNodeStopped = errors.New("satin: node stopped")

// spawnSlot is one spawn's home in its parent's frame: the future the
// parent reads and the job record the deque carries a pointer to.
type spawnSlot struct {
	fut Future
	job jobMsg
}

// Slot blocks double from firstBlock slots (fib spawns 2 per frame,
// nqueens at most 8) maxDoublings times, to 64, and stay at 64 however
// many a frame adds; a pooled Context keeps its first keptBlocks blocks
// (60 slots, 4.8 KB) and drops the rest.
const (
	firstBlock   = 4
	maxDoublings = 4
	keptBlocks   = 4
)

// Context is a task's handle to the runtime during execution. Each
// task execution gets its own Context; Spawn/Sync pairs express the
// divide-and-conquer structure exactly as Satin's spawn/sync
// annotations do.
type Context struct {
	node      *Node
	frame     []*Future     // spawned since the last Sync
	blocks    [][]spawnSlot // this frame's slots; their addresses never move
	bi, si    int           // the next free slot is blocks[bi][si]
	benchMode bool          // benchmark runs execute spawns inline, unstealable
}

// NodeID returns the executing node's identity.
func (c *Context) NodeID() NodeID { return c.node.cfg.ID }

// Cluster returns the executing node's site.
func (c *Context) Cluster() ClusterID { return c.node.cfg.Cluster }

// Spawn submits t for potentially-parallel execution and returns its
// future. The job lands on this node's deque; idle peers may steal it.
// Results are valid after the next Sync, and the future itself until
// the spawning task returns: it lives in this task's frame, which the
// runtime reuses. A task holds every slot it spawned into until it
// returns, Syncs included, so a task that loops spawn/Sync holds about
// 80 B per spawn of the loop; split a long loop into child tasks.
func (c *Context) Spawn(t Task) *Future {
	s := c.slot()
	c.frame = append(c.frame, &s.fut)
	if c.benchMode {
		// The speed benchmark must measure THIS processor: execute
		// inline instead of exposing work to thieves.
		ctx := c.node.getContext(true)
		val, err := safeExecute(t, ctx)
		c.node.putContext(ctx)
		s.fut.complete(val, err)
		return &s.fut
	}
	// Spawn runs on the worker goroutine, so the push is an owner
	// operation: no lock, no ID, no pending entry. The job gets those if
	// a thief takes it.
	s.job = jobMsg{Owner: c.node.cfg.ID, Task: t, fut: &s.fut}
	c.node.jobs.Push(&s.job)
	c.node.wakeThief()
	return &s.fut
}

// slot takes the frame's next free slot, adding a block when the last
// one is full.
func (c *Context) slot() *spawnSlot {
	if c.bi == len(c.blocks) {
		c.blocks = append(c.blocks, make([]spawnSlot, firstBlock<<min(c.bi, maxDoublings)))
	}
	b := c.blocks[c.bi]
	s := &b[c.si]
	if c.si++; c.si == len(b) {
		c.bi, c.si = c.bi+1, 0
	}
	return s
}

// release readies the frame for the next task. A frame that synced
// everything it spawned has all its futures resolved and all its jobs
// taken off the deque, so its slots are zeroed and reused. Any other
// frame — its task returned without Sync, or a stopped node cut Sync
// short — may still have jobs on the deque or futures in the pending
// table: its blocks go to the garbage collector with them.
func (c *Context) release() {
	if len(c.frame) > 0 {
		clear(c.frame)
		c.frame = c.frame[:0]
		c.blocks = nil
	} else {
		for i := 0; i <= c.bi && i < len(c.blocks); i++ {
			b := c.blocks[i]
			if i == c.bi {
				b = b[:c.si]
			}
			clear(b)
		}
		if len(c.blocks) > keptBlocks {
			clear(c.blocks[keptBlocks:])
			c.blocks = c.blocks[:keptBlocks]
		}
	}
	c.bi, c.si = 0, 0
	c.benchMode = false
}

// Sync blocks until every task spawned through this context since the
// previous Sync has completed. While waiting, the worker executes
// other ready jobs (work-first) and steals — the node is never parked
// while work exists anywhere. Sync returns the first error among the
// children.
func (c *Context) Sync() error {
	n := c.node
	for {
		if n.Stopped() {
			// The node was killed mid-execution: unblock so the worker
			// can exit; the result goes nowhere (peers recompute).
			return errNodeStopped
		}
		allDone := true
		for _, f := range c.frame {
			if !f.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			var firstErr error
			for _, f := range c.frame {
				if err := f.Err(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			c.frame = c.frame[:0]
			return firstErr
		}
		if j, ok := n.popNewest(); ok {
			n.executeJob(j) // Busy throughout: we are inside the parent task
			continue
		}
		j, ok := n.findWork()
		// Stealing and parking leave the worker Idle: re-enter Busy.
		n.enterState(int(metrics.Busy))
		if ok {
			n.executeJob(j)
		}
	}
}
