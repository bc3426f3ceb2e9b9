package satin

import (
	"errors"

	"repro/internal/metrics"
)

// errNodeStopped unblocks Sync on a killed node; the unfinished work is
// recomputed by its owners.
var errNodeStopped = errors.New("satin: node stopped")

// Context is a task's handle to the runtime during execution. Each
// task execution gets its own Context; Spawn/Sync pairs express the
// divide-and-conquer structure exactly as Satin's spawn/sync
// annotations do.
type Context struct {
	node      *Node
	frame     []*Future
	benchMode bool // benchmark runs execute spawns inline, unstealable
}

// NodeID returns the executing node's identity.
func (c *Context) NodeID() NodeID { return c.node.cfg.ID }

// Cluster returns the executing node's site.
func (c *Context) Cluster() ClusterID { return c.node.cfg.Cluster }

// Spawn submits t for potentially-parallel execution and returns its
// future. The job lands on this node's deque; idle peers may steal it.
// Results are valid after the next Sync.
func (c *Context) Spawn(t Task) *Future {
	if c.benchMode {
		// The speed benchmark must measure THIS processor: execute
		// inline instead of exposing work to thieves.
		fut := &Future{}
		val, err := safeExecute(t, &Context{node: c.node, benchMode: true})
		fut.complete(val, err)
		c.frame = append(c.frame, fut)
		return fut
	}
	fut := c.node.spawnJob(t)
	c.frame = append(c.frame, fut)
	return fut
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
