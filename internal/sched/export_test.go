package sched

import (
	"fmt"

	"repro/internal/core"
)

// InUseCount returns the number of nodes currently handed out.
func (p *Pool) InUseCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inUse)
}

// Acquire hands out a specific node. It fails if the node is not free.
func (p *Pool) Acquire(cluster core.ClusterID, node core.NodeID) (NodeRef, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := p.free[cluster]
	for i, id := range ids {
		if id == node {
			p.free[cluster] = append(append([]core.NodeID{}, ids[:i]...), ids[i+1:]...)
			p.inUse[node] = cluster
			return NodeRef{Node: node, Cluster: cluster}, nil
		}
	}
	return NodeRef{}, fmt.Errorf("sched: node %s not free in cluster %s", node, cluster)
}
