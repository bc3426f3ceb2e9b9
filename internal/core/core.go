// Package core implements the paper's primary contribution in pure,
// runtime-independent form: the weighted average efficiency metric, the
// node/cluster badness ranking, the threshold-driven adaptation decision
// engine, and the resource requirements (blacklist, minimum bandwidth)
// learned during a run.
//
// The package deliberately has no notion of real time, goroutines, or
// message transports: it consumes per-monitoring-period statistics and
// produces decisions. Both the discrete-event grid simulator
// (internal/des) and the real work-stealing runtime (satin) drive the
// same engine, which is the point of the paper: adaptation needs only
// the statistics, never an application performance model.
package core

import "sort"

// NodeID identifies a single processor taking part in the computation.
type NodeID string

// ClusterID identifies a site (cluster or supercomputer). Nodes within a
// cluster share a LAN; clusters are connected by WAN links.
type ClusterID string

// NodeStats is one processor's report for one monitoring period.
//
// Overhead fractions are in [0,1] and are fractions of the monitoring
// period: Idle + IntraComm + InterComm <= 1, and the remainder is useful
// work. Speed is the application-specific benchmark measurement in
// absolute units (work units per second); the engine normalises speeds
// internally, so reports from heterogeneous benchmark scales must use a
// single consistent unit.
type NodeStats struct {
	Node    NodeID
	Cluster ClusterID

	// Speed is the measured processor speed (work units/second) from the
	// application-specific benchmark. Zero means "unknown"; such nodes
	// are treated as having the slowest known speed.
	Speed float64

	// Idle is the fraction of the period the node spent with no work.
	Idle float64
	// IntraComm is the fraction spent communicating within the cluster.
	IntraComm float64
	// InterComm is the fraction spent communicating across clusters.
	InterComm float64

	// Links optionally records, per peer cluster, how long this node's
	// inter-cluster transfers with that cluster took and how many bytes
	// they moved — the paper's "bandwidth between each pair of clusters
	// is estimated during the computation by measuring data transfer
	// times". May be nil.
	Links map[ClusterID]LinkSample
}

// LinkSample accumulates transfer observations with one peer cluster.
type LinkSample struct {
	Seconds float64 // wire time of the transfers
	Bytes   float64 // payload moved
}

// Bandwidth returns the achieved throughput of the sample (0 if empty).
func (l LinkSample) Bandwidth() float64 {
	if l.Seconds <= 0 {
		return 0
	}
	return l.Bytes / l.Seconds
}

// Overhead returns the node's total overhead fraction for the period:
// the time not spent on useful application work, clamped to [0,1].
func (s NodeStats) Overhead() float64 {
	o := s.Idle + s.IntraComm + s.InterComm
	if o < 0 {
		return 0
	}
	if o > 1 {
		return 1
	}
	return o
}

// RelativeSpeeds returns each node's speed divided by the fastest node's
// speed, so the fastest node has relative speed 1 and 0 < speed <= 1
// holds for all others. Nodes with unknown (zero) speed are assigned the
// smallest known relative speed (or 1 if no node has a known speed).
func RelativeSpeeds(stats []NodeStats) []float64 {
	rel := make([]float64, len(stats))
	max := 0.0
	minKnown := 0.0
	for _, s := range stats {
		if s.Speed > max {
			max = s.Speed
		}
		if s.Speed > 0 && (minKnown == 0 || s.Speed < minKnown) {
			minKnown = s.Speed
		}
	}
	for i, s := range stats {
		switch {
		case max == 0:
			rel[i] = 1 // nobody measured yet: treat as homogeneous
		case s.Speed > 0:
			rel[i] = s.Speed / max
		default:
			rel[i] = minKnown / max
		}
	}
	return rel
}

// WeightedAverageEfficiency computes the paper's central metric:
//
//	WAE = (1/n) * sum_i speed_i * (1 - overhead_i)
//
// where speed_i is relative to the fastest processor. Slow processors
// are thereby modelled as fast processors that are idle a large fraction
// of the time, so adding slow processors is correctly valued below
// adding fast ones. Returns 0 for an empty report set.
func WeightedAverageEfficiency(stats []NodeStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	rel := RelativeSpeeds(stats)
	sum := 0.0
	for i, s := range stats {
		sum += rel[i] * (1 - s.Overhead())
	}
	return sum / float64(len(stats))
}

// ClusterStats aggregates one cluster's nodes for one period.
type ClusterStats struct {
	Cluster ClusterID
	Nodes   []NodeID
	// Speed is the sum of the member nodes' absolute speeds.
	Speed float64
	// RelSpeed is Speed normalised to the fastest cluster (1 = fastest).
	RelSpeed float64
	// InterComm is the mean inter-cluster communication overhead of the
	// member nodes.
	InterComm float64
	// MeanOverhead is the mean total overhead of the member nodes.
	MeanOverhead float64
}

// AggregateClusters groups per-node stats by cluster, computing cluster
// speeds (sum of node speeds, normalised to the fastest cluster) and the
// mean inter-cluster overhead, in deterministic (sorted) cluster order.
func AggregateClusters(stats []NodeStats) []ClusterStats {
	byCluster := make(map[ClusterID]*ClusterStats)
	var order []ClusterID
	for _, s := range stats {
		c, ok := byCluster[s.Cluster]
		if !ok {
			c = &ClusterStats{Cluster: s.Cluster}
			byCluster[s.Cluster] = c
			order = append(order, s.Cluster)
		}
		c.Nodes = append(c.Nodes, s.Node)
		c.Speed += s.Speed
		c.InterComm += s.InterComm
		c.MeanOverhead += s.Overhead()
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]ClusterStats, 0, len(order))
	maxSpeed := 0.0
	for _, id := range order {
		c := byCluster[id]
		n := float64(len(c.Nodes))
		c.InterComm /= n
		c.MeanOverhead /= n
		sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i] < c.Nodes[j] })
		if c.Speed > maxSpeed {
			maxSpeed = c.Speed
		}
		out = append(out, *c)
	}
	for i := range out {
		if maxSpeed > 0 {
			out[i].RelSpeed = out[i].Speed / maxSpeed
		} else {
			out[i].RelSpeed = 1
		}
	}
	return out
}

// PairKey orders two cluster IDs canonically.
func PairKey(a, b ClusterID) [2]ClusterID {
	if b < a {
		a, b = b, a
	}
	return [2]ClusterID{a, b}
}

// PairBandwidths estimates the achieved bandwidth of every cluster pair
// from the nodes' transfer samples (both directions combined). Pairs
// with fewer than minBytes of evidence are omitted as noise.
func PairBandwidths(stats []NodeStats, minBytes float64) map[[2]ClusterID]LinkSample {
	pairs := make(map[[2]ClusterID]LinkSample)
	for _, s := range stats {
		for peer, sample := range s.Links {
			if peer == s.Cluster {
				continue
			}
			k := PairKey(s.Cluster, peer)
			agg := pairs[k]
			agg.Seconds += sample.Seconds
			agg.Bytes += sample.Bytes
			pairs[k] = agg
		}
	}
	for k, agg := range pairs {
		if agg.Bytes < minBytes {
			delete(pairs, k)
		}
	}
	return pairs
}

// BandwidthCulprit finds the cluster whose connectivity is the
// bottleneck: the participant cluster whose BEST pair bandwidth is the
// lowest. A congested access link degrades every pair the cluster is
// part of, while its neighbours keep healthy pairs among themselves —
// so comparing best-pair bandwidths separates the culprit from its
// collateral victims. Returns the culprit, its best-pair bandwidth and
// the best bandwidth observed anywhere (the reference); ok is false
// when fewer than two pairs have evidence.
func BandwidthCulprit(stats []NodeStats, minBytes float64) (culprit ClusterID, bw, ref float64, ok bool) {
	pairs := PairBandwidths(stats, minBytes)
	if len(pairs) < 2 {
		return "", 0, 0, false
	}
	best := make(map[ClusterID]float64)
	for k, sample := range pairs {
		b := sample.Bandwidth()
		if b > ref {
			ref = b
		}
		for _, c := range k {
			if b > best[c] {
				best[c] = b
			}
		}
	}
	first := true
	for c, b := range best {
		if first || b < bw || (b == bw && c < culprit) {
			culprit, bw = c, b
			first = false
		}
	}
	return culprit, bw, ref, true
}
