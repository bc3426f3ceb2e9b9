package core

import (
	"fmt"
	"slices"
	"sync"
)

// Requirements records what the coordinator has learned about the
// application's needs during the run. The paper learns requirements
// instead of asking the programmer for a performance model:
//
//   - removed resources are blacklisted so the scheduler does not hand
//     them straight back (the paper notes this is conservative — a link
//     may recover — and so does this: an entry never leaves, which is
//     what lets coordinators union-merge blacklists and share snapshots);
//   - every time a cluster is evacuated for insufficient uplink
//     bandwidth, the estimated bandwidth to that cluster becomes a new
//     lower bound on the bandwidth the application requires.
//
// Requirements is safe for concurrent use: the real runtime's
// coordinator updates it from its event loop while schedulers query it.
type Requirements struct {
	mu sync.Mutex

	blackNodes    map[NodeID]struct{}
	blackClusters map[ClusterID]struct{}

	// nodeSnap and clusterSnap are the sorted key sets of the two maps,
	// built by the first read after a new fact was added (nil = stale)
	// and handed out as they are until the next one. A snapshot is
	// never written again once built: acks, resets, the subs' caches
	// and stored summaries all alias it, so a new fact makes a new
	// slice instead of appending in place.
	nodeSnap    []NodeID
	clusterSnap []ClusterID

	// minBandwidth is the learned lower bound in bytes/second; zero
	// means nothing learned yet.
	minBandwidth float64
}

// NewRequirements returns an empty requirement set.
func NewRequirements() *Requirements {
	return &Requirements{
		blackNodes:    make(map[NodeID]struct{}),
		blackClusters: make(map[ClusterID]struct{}),
	}
}

// BlacklistNode records that node was removed and must not be re-added.
// Re-blacklisting a known node changes nothing.
func (r *Requirements) BlacklistNode(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.blackNodes[id]; !known {
		r.nodeSnap = nil
		r.blackNodes[id] = struct{}{}
	}
}

// BlacklistCluster records that the whole cluster was evacuated.
func (r *Requirements) BlacklistCluster(id ClusterID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.blackClusters[id]; !known {
		r.clusterSnap = nil
		r.blackClusters[id] = struct{}{}
	}
}

// NodeBlacklisted reports whether the node (or its cluster) is banned;
// an empty node asks about the cluster alone.
func (r *Requirements) NodeBlacklisted(node NodeID, cluster ClusterID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.blackNodes[node]; ok {
		return true
	}
	_, ok := r.blackClusters[cluster]
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

// BlacklistedNodes returns the banned node IDs in sorted order. The
// slice is a snapshot shared with every other reader since the last
// new fact: callers must not modify it, and nothing learned later
// shows through it.
func (r *Requirements) BlacklistedNodes() []NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodeSnap == nil {
		r.nodeSnap = sortedKeys(r.blackNodes)
	}
	return r.nodeSnap
}

// BlacklistedClusters returns the banned cluster IDs in sorted order,
// as a shared snapshot like BlacklistedNodes'.
func (r *Requirements) BlacklistedClusters() []ClusterID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.clusterSnap == nil {
		r.clusterSnap = sortedKeys(r.blackClusters)
	}
	return r.clusterSnap
}

// sortedKeys returns m's keys in a new, sorted, non-nil slice.
func sortedKeys[K ~string](m map[K]struct{}) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// String summarises the learned requirements for logs and traces.
func (r *Requirements) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("requirements{blacklistedNodes=%d blacklistedClusters=%d minBandwidth=%.0fB/s}",
		len(r.blackNodes), len(r.blackClusters), r.minBandwidth)
}
