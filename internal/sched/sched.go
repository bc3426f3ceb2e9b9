// Package sched is the grid scheduler substrate — the role Zorilla
// plays in the paper: it owns the pool of grid processors and hands
// allocations to the adaptation coordinator. Allocation is
// locality-aware (it prefers placing nodes together, first in clusters
// the application already occupies), honours the coordinator's learned
// blacklist, and supports node crashes and availability changes so the
// scenarios can take resources away.
package sched

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/topo"
)

// NodeRef is a concrete processor handed out by the scheduler.
type NodeRef struct {
	Node    core.NodeID
	Cluster core.ClusterID
}

// Filter vetoes candidate resources; the coordinator passes its learned
// requirements (blacklist) in through this.
type Filter func(node core.NodeID, cluster core.ClusterID) bool

// LocalityOrder is the preference list a grow request carries: the
// clusters the application occupies, most nodes held first, ties by ID.
// Both runtimes build their Request's prefer argument here, so the same
// occupancy places a grown node on the same cluster in the simulator
// and on the live grid, and neither depends on map iteration order.
func LocalityOrder(held map[core.ClusterID]int) []core.ClusterID {
	order := make([]core.ClusterID, 0, len(held))
	for c := range held {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		if held[order[i]] != held[order[j]] {
			return held[order[i]] > held[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// Pool tracks which processors of a topology are free, in use, or gone.
// It is safe for concurrent use (the real runtime calls it from
// multiple goroutines; the simulator is single-threaded but shares the
// code).
type Pool struct {
	mu sync.Mutex

	clusters []topo.Cluster
	free     map[core.ClusterID][]core.NodeID // free nodes per cluster (sorted)
	inUse    map[core.NodeID]core.ClusterID
	dead     map[core.NodeID]bool
}

// NewPool builds a pool with every node of the topology free.
func NewPool(t topo.Topology) (*Pool, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{
		clusters: append([]topo.Cluster(nil), t.Clusters...),
		free:     make(map[core.ClusterID][]core.NodeID),
		inUse:    make(map[core.NodeID]core.ClusterID),
		dead:     make(map[core.NodeID]bool),
	}
	for _, c := range t.Clusters {
		ids := make([]core.NodeID, 0, c.Nodes)
		for i := 0; i < c.Nodes; i++ {
			ids = append(ids, topo.NodeName(c.ID, i))
		}
		p.free[c.ID] = ids
	}
	return p, nil
}

// FreeCount returns the number of allocatable nodes.
func (p *Pool) FreeCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ids := range p.free {
		n += len(ids)
	}
	return n
}

// AcquireN hands out up to n free nodes from one cluster.
func (p *Pool) AcquireN(cluster core.ClusterID, n int) []NodeRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.takeLocked(cluster, n, nil)
}

func (p *Pool) takeLocked(cluster core.ClusterID, n int, veto Filter) []NodeRef {
	ids := p.free[cluster]
	var taken []NodeRef
	var kept []core.NodeID
	for _, id := range ids {
		if len(taken) < n && (veto == nil || !veto(id, cluster)) {
			taken = append(taken, NodeRef{Node: id, Cluster: cluster})
			p.inUse[id] = cluster
		} else {
			kept = append(kept, id)
		}
	}
	p.free[cluster] = kept
	return taken
}

// Request allocates up to n nodes, locality-aware: clusters listed in
// prefer (the sites the application already runs on) are filled first
// in the given order, then the remaining clusters by descending free
// capacity, so new nodes land on as few new sites as possible — the
// behaviour the paper relies on Zorilla for. veto (may be nil) rejects
// individual nodes or whole clusters (the coordinator's blacklist).
// Fewer than n nodes may be returned if the grid is busy.
func (p *Pool) Request(n int, prefer []core.ClusterID, veto Filter) []NodeRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []NodeRef
	seen := make(map[core.ClusterID]bool)
	for _, c := range prefer {
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, p.takeLocked(c, n-len(out), veto)...)
		if len(out) >= n {
			return out
		}
	}
	// Remaining clusters by free capacity (descending), ties by ID.
	type cand struct {
		id   core.ClusterID
		free int
	}
	var rest []cand
	for _, c := range p.clusters {
		if !seen[c.ID] && len(p.free[c.ID]) > 0 {
			rest = append(rest, cand{c.ID, len(p.free[c.ID])})
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].free != rest[j].free {
			return rest[i].free > rest[j].free
		}
		return rest[i].id < rest[j].id
	})
	for _, c := range rest {
		out = append(out, p.takeLocked(c.id, n-len(out), veto)...)
		if len(out) >= n {
			break
		}
	}
	return out
}

// RequestBandwidth is Request with a minimum uplink-bandwidth
// constraint: clusters whose access link is below minBW are skipped
// entirely. This is the paper's "pass the learned bandwidth bound to
// the scheduler to avoid adding inappropriate resources" — stronger
// than blacklisting, because it also rejects clusters the application
// never touched.
func (p *Pool) RequestBandwidth(n int, prefer []core.ClusterID, veto Filter, minBW float64) []NodeRef {
	if minBW <= 0 {
		return p.Request(n, prefer, veto)
	}
	slow := make(map[core.ClusterID]bool)
	p.mu.Lock()
	for _, c := range p.clusters {
		// The learned bound is a proven-insufficient rate: the
		// application needs strictly more, and a link barely at that
		// rate is equally useless — hence the 20% safety margin.
		if c.UplinkBandwidth < minBW*1.2 {
			slow[c.ID] = true
		}
	}
	p.mu.Unlock()
	bwVeto := func(node core.NodeID, cluster core.ClusterID) bool {
		if slow[cluster] {
			return true
		}
		return veto != nil && veto(node, cluster)
	}
	var kept []core.ClusterID
	for _, c := range prefer {
		if !slow[c] {
			kept = append(kept, c)
		}
	}
	return p.Request(n, kept, bwVeto)
}

// BestAvailable returns the free, non-vetoed cluster with the fastest
// processors and how many nodes it has free. This backs opportunistic
// migration: the paper proposes measuring one processor per site
// (clusters are homogeneous) with an application benchmark the
// scheduler runs on the coordinator's behalf; the pool's static
// per-cluster speed plays that role.
func (p *Pool) BestAvailable(veto Filter) (core.ClusterID, float64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bestID := core.ClusterID("")
	bestSpeed := 0.0
	bestFree := 0
	for _, c := range p.clusters {
		free := 0
		for _, id := range p.free[c.ID] {
			if veto == nil || !veto(id, c.ID) {
				free++
			}
		}
		if free == 0 {
			continue
		}
		if c.Speed > bestSpeed || (c.Speed == bestSpeed && c.ID < bestID) {
			bestID, bestSpeed, bestFree = c.ID, c.Speed, free
		}
	}
	return bestID, bestSpeed, bestFree
}

// Release returns a node to the free pool (graceful leave). Releasing
// a node the pool does not consider in use is a no-op, which makes
// crash/leave races harmless.
func (p *Pool) Release(ref NodeRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.inUse[ref.Node]; !ok {
		return
	}
	delete(p.inUse, ref.Node)
	if p.dead[ref.Node] {
		return
	}
	p.free[ref.Cluster] = append(p.free[ref.Cluster], ref.Node)
	ids := p.free[ref.Cluster]
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// MarkDead permanently removes a node (crash): it is neither free nor
// in use afterwards and can never be handed out again.
func (p *Pool) MarkDead(node core.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead[node] = true
	if c, ok := p.inUse[node]; ok {
		delete(p.inUse, node)
		_ = c
		return
	}
	for cid, ids := range p.free {
		for i, id := range ids {
			if id == node {
				p.free[cid] = append(append([]core.NodeID{}, ids[:i]...), ids[i+1:]...)
				return
			}
		}
	}
}

// FreeIn returns the free node count of one cluster.
func (p *Pool) FreeIn(cluster core.ClusterID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free[cluster])
}
