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

// Plus returns the two samples' sum: both transfers' time and bytes.
func (l LinkSample) Plus(o LinkSample) LinkSample {
	return LinkSample{Seconds: l.Seconds + o.Seconds, Bytes: l.Bytes + o.Bytes}
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

// WeightedAverageEfficiency computes the paper's central metric:
//
//	WAE = (1/n) * sum_i speed_i * (1 - overhead_i)
//
// where speed_i is relative to the fastest processor (relativeSpeed).
// Slow processors are thereby modelled as fast processors that are idle
// a large fraction of the time, so adding slow processors is correctly
// valued below adding fast ones. Returns 0 for an empty report set.
func WeightedAverageEfficiency(stats []NodeStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var all ClusterPartial
	for _, s := range stats {
		all.addSpeed(s.Speed)
	}
	sum := 0.0
	for _, s := range stats {
		sum += relativeSpeed(s.Speed, all.SpeedMax, all.SpeedMin) * (1 - s.Overhead())
	}
	return sum / float64(len(stats))
}
