package core

import (
	"fmt"
	"sort"
	"sync"
)

// Requirements records what the coordinator has learned about the
// application's needs during the run. The paper learns requirements
// instead of asking the programmer for a performance model:
//
//   - removed resources are blacklisted so the scheduler does not hand
//     them straight back (the paper notes this is conservative — a link
//     may recover — which is why entries can be expired);
//   - every time a cluster is evacuated for insufficient uplink
//     bandwidth, the estimated bandwidth to that cluster becomes a new
//     lower bound on the bandwidth the application requires.
//
// Requirements is safe for concurrent use: the real runtime's
// coordinator updates it from its event loop while schedulers query it.
type Requirements struct {
	mu sync.Mutex

	blackNodes    map[NodeID]string    // node -> reason
	blackClusters map[ClusterID]string // cluster -> reason

	// minBandwidth is the learned lower bound in bytes/second; zero
	// means nothing learned yet.
	minBandwidth float64
}

// NewRequirements returns an empty requirement set.
func NewRequirements() *Requirements {
	return &Requirements{
		blackNodes:    make(map[NodeID]string),
		blackClusters: make(map[ClusterID]string),
	}
}

// BlacklistNode records that node was removed and must not be re-added.
func (r *Requirements) BlacklistNode(id NodeID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blackNodes[id] = reason
}

// BlacklistCluster records that the whole cluster was evacuated.
func (r *Requirements) BlacklistCluster(id ClusterID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blackClusters[id] = reason
}

// NodeBlacklisted reports whether the node (or its cluster) is banned.
func (r *Requirements) NodeBlacklisted(node NodeID, cluster ClusterID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.blackNodes[node]; ok {
		return true
	}
	_, ok := r.blackClusters[cluster]
	return ok
}

// ClusterBlacklisted reports whether the cluster is banned.
func (r *Requirements) ClusterBlacklisted(id ClusterID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.blackClusters[id]
	return ok
}

// LearnMinBandwidth tightens the minimum-bandwidth requirement: bw is
// the estimated bandwidth (bytes/s) to a cluster that proved
// insufficient, so the application needs strictly more than bw. The
// bound only ever increases.
func (r *Requirements) LearnMinBandwidth(bw float64) {
	if bw <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if bw > r.minBandwidth {
		r.minBandwidth = bw
	}
}

// MinBandwidth returns the learned lower bound in bytes/s (0 = none).
func (r *Requirements) MinBandwidth() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.minBandwidth
}

// BlacklistedNodes returns the banned node IDs in sorted order.
func (r *Requirements) BlacklistedNodes() []NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeID, 0, len(r.blackNodes))
	for n := range r.blackNodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BlacklistedClusters returns the banned cluster IDs in sorted order.
func (r *Requirements) BlacklistedClusters() []ClusterID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ClusterID, 0, len(r.blackClusters))
	for c := range r.blackClusters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarises the learned requirements for logs and traces.
func (r *Requirements) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("requirements{blacklistedNodes=%d blacklistedClusters=%d minBandwidth=%.0fB/s}",
		len(r.blackNodes), len(r.blackClusters), r.minBandwidth)
}
