// Package pool is the shared node-pool arbiter of the multi-job
// service: one Arbiter owns the grid's processors (a sched.Pool over
// the whole topology) and hands per-job Client handles through which
// each job's grid and adaptation coordinator bid for nodes. No grid
// owns the scheduler any more — allocation requests are capped by an
// admission-control + fair-share policy:
//
//   - work-conserving: while nobody else is waiting, a client may grow
//     past its fair share and use every free node (a lone job still
//     gets the whole grid, as in the single-job runtime);
//   - contended: as soon as some client is waiting below its share
//     ("needy"), clients at or above their share get nothing, so every
//     freed node flows to the starved jobs first;
//   - reclaim: a client holding more than its share while others are
//     needy sees a positive Pressure(); its adaptation coordinator
//     yields that many nodes at the next tick (coord's fair-share
//     yield), which is how a long-lived job hands capacity back
//     without being killed.
//
// Demand is what a client asked for and did not get; it expires after
// DemandTTL so a job that stopped bidding (its WAE recovered, or it
// finished provisioning) does not freeze the rest of the grid.
//
// Layering: pool depends on sched and topo only. satin.Grid talks to
// it through the satin.NodePool interface (a *sched.Pool satisfies the
// same interface, which is the single-job private-pool case);
// internal/job owns the Arbiter and registers one Client per job.
package pool

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/topo"
)

// Config tunes an Arbiter.
type Config struct {
	// DemandTTL is how long an unmet allocation request counts as
	// active demand (default 10s). It should comfortably exceed the
	// jobs' provisioning retry and adaptation periods.
	DemandTTL time.Duration
}

func (c *Config) defaults() {
	if c.DemandTTL == 0 {
		c.DemandTTL = 10 * time.Second
	}
}

// Arbiter owns the shared pool and the per-client accounting.
type Arbiter struct {
	cfg  Config
	pool *sched.Pool

	mu       sync.Mutex
	clients  map[string]*Client
	capacity int // non-dead nodes in the topology
	dead     map[core.NodeID]bool
	released chan struct{} // closed and replaced when nodes return

	granted, denied *obs.Counter
}

// New builds an arbiter owning every node of the topology.
func New(t topo.Topology, cfg Config) (*Arbiter, error) {
	cfg.defaults()
	p, err := sched.NewPool(t)
	if err != nil {
		return nil, err
	}
	return &Arbiter{
		cfg:      cfg,
		pool:     p,
		clients:  make(map[string]*Client),
		capacity: t.TotalNodes(),
		dead:     make(map[core.NodeID]bool),
		released: make(chan struct{}),
		granted:  obs.Default.Counter("pool/granted"),
		denied:   obs.Default.Counter("pool/denied"),
	}, nil
}

// Capacity returns the number of non-dead nodes the arbiter manages.
func (a *Arbiter) Capacity() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity
}

// Free returns the currently allocatable node count.
func (a *Arbiter) Free() int { return a.pool.FreeCount() }

// Released returns a channel that closes the next time the pool
// changes in a waiter's favour: a node is released, a client closes or
// a node dies. Take it before looking at the pool, then wait on it, and
// no release in between is missed.
func (a *Arbiter) Released() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.released
}

func (a *Arbiter) signalLocked() {
	close(a.released)
	a.released = make(chan struct{})
}

// MarkDead removes a node from the grid permanently (site crash).
func (a *Arbiter) MarkDead(node core.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.markDeadLocked(node)
}

func (a *Arbiter) markDeadLocked(node core.NodeID) {
	if a.dead[node] {
		return
	}
	a.dead[node] = true
	a.capacity--
	a.pool.MarkDead(node)
	for _, c := range a.clients {
		delete(c.held, node)
	}
	a.signalLocked()
}

// Register creates a client handle. weight scales the client's fair
// share (default 1); maxNodes caps its total allocation (0 = no cap).
func (a *Arbiter) Register(id string, weight float64, maxNodes int) (*Client, error) {
	if weight <= 0 {
		weight = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.clients[id]; dup {
		return nil, fmt.Errorf("pool: client %q already registered", id)
	}
	c := &Client{
		arb:    a,
		id:     id,
		weight: weight,
		max:    maxNodes,
		held:   make(map[core.NodeID]sched.NodeRef),
	}
	a.clients[id] = c
	return c, nil
}

// shareLocked is the client's fair share of the pool, never below one
// node: capacity times its weight fraction.
func (a *Arbiter) shareLocked(c *Client) int {
	total := 0.0
	for _, o := range a.clients {
		total += o.weight
	}
	if total <= 0 {
		return a.capacity
	}
	share := int(float64(a.capacity) * c.weight / total)
	if share < 1 {
		share = 1
	}
	return share
}

// needyLocked reports whether any client other than c has live unmet
// demand while holding less than its share — the contended state.
func (a *Arbiter) needyLocked(c *Client, now time.Time) bool {
	for _, o := range a.clients {
		if o == c || o.want == 0 {
			continue
		}
		if now.Sub(o.wantAt) >= a.cfg.DemandTTL {
			continue
		}
		if len(o.held) < a.shareLocked(o) {
			return true
		}
	}
	return false
}

// allowanceLocked is how many more nodes c may take right now.
func (a *Arbiter) allowanceLocked(c *Client, now time.Time) int {
	allow := a.capacity - len(c.held) // work-conserving upper bound
	if a.needyLocked(c, now) {
		allow = a.shareLocked(c) - len(c.held)
	}
	if c.max > 0 && c.max-len(c.held) < allow {
		allow = c.max - len(c.held)
	}
	if allow < 0 {
		return 0
	}
	return allow
}

// Client is one job's handle on the shared pool. It satisfies the
// satin.NodePool interface, so a satin.Grid provisions and releases
// through it transparently; the fair-share cap is applied here.
type Client struct {
	arb    *Arbiter
	id     string
	weight float64
	max    int

	// guarded by arb.mu
	held   map[core.NodeID]sched.NodeRef
	want   int // unmet demand from the latest request
	wantAt time.Time
	closed bool
}

// granted records a grant outcome: held bookkeeping and demand update.
func (c *Client) grantedLocked(refs []sched.NodeRef, requested int) {
	for _, ref := range refs {
		c.held[ref.Node] = ref
	}
	c.want = requested - len(refs)
	c.wantAt = time.Now()
	c.arb.granted.Add(uint64(len(refs)))
	if c.want > 0 {
		c.arb.denied.Add(uint64(c.want))
	}
}

// AcquireN hands out up to n free nodes of one cluster, fair-share
// capped.
func (c *Client) AcquireN(cluster core.ClusterID, n int) []sched.NodeRef {
	a := c.arb
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.closed {
		return nil
	}
	allow := a.allowanceLocked(c, time.Now())
	take := n
	if take > allow {
		take = allow
	}
	refs := a.pool.AcquireN(cluster, take)
	c.grantedLocked(refs, n)
	return refs
}

// RequestBandwidth allocates up to n nodes with locality preference and
// a minimum uplink-bandwidth bound, fair-share capped — the bid the
// job's adaptation coordinator places against every other job's.
func (c *Client) RequestBandwidth(n int, prefer []core.ClusterID, veto sched.Filter, minBW float64) []sched.NodeRef {
	a := c.arb
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.closed {
		return nil
	}
	allow := a.allowanceLocked(c, time.Now())
	take := n
	if take > allow {
		take = allow
	}
	refs := a.pool.RequestBandwidth(take, prefer, veto, minBW)
	c.grantedLocked(refs, n)
	return refs
}

// Release returns one node to the shared pool and wakes waiters.
func (c *Client) Release(ref sched.NodeRef) {
	a := c.arb
	a.mu.Lock()
	delete(c.held, ref.Node)
	a.pool.Release(ref)
	a.signalLocked()
	a.mu.Unlock()
}

// FreeIn returns the free node count of one cluster (unfiltered — the
// fair-share cap applies to grants, not to visibility).
func (c *Client) FreeIn(cluster core.ClusterID) int { return c.arb.pool.FreeIn(cluster) }

// MarkDead removes a node from the grid permanently.
func (c *Client) MarkDead(node core.NodeID) { c.arb.MarkDead(node) }

// Pressure returns how many nodes the client should yield: the amount
// it holds beyond its fair share while other clients are needy. The
// job's adaptation coordinator polls this each tick and evicts that
// many of its worst nodes (without blacklisting them).
func (c *Client) Pressure() int {
	a := c.arb
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.closed || !a.needyLocked(c, time.Now()) {
		return 0
	}
	over := len(c.held) - a.shareLocked(c)
	if over < 0 {
		return 0
	}
	return over
}

// Close releases everything the client still holds and unregisters it.
// Safe to call twice.
func (c *Client) Close() {
	a := c.arb
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, ref := range c.held {
		a.pool.Release(ref)
	}
	c.held = make(map[core.NodeID]sched.NodeRef)
	c.want = 0
	delete(a.clients, c.id)
	a.signalLocked()
}
