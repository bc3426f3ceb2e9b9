// Package metrics implements the per-monitoring-period statistics
// accounting the paper's application monitoring is built on: every
// processor tracks how much of the period it spent doing useful work,
// communicating inside its cluster, communicating across clusters,
// running the speed benchmark, or sitting idle. At the end of each
// period the accumulator is snapshotted into a Report, which converts
// to the core.NodeStats the adaptation coordinator consumes.
//
// The package is time-representation agnostic (plain float64 seconds),
// so the discrete-event simulator and the real runtime share it.
package metrics

import (
	"fmt"

	"repro/internal/core"
)

// Bucket labels one kind of accounted time.
type Bucket int

const (
	// Busy is useful application work.
	Busy Bucket = iota
	// Intra is intra-cluster communication (local steals, LAN traffic).
	Intra
	// Inter is inter-cluster communication (wide-area steals, body
	// exchange crossing an uplink).
	Inter
	// Bench is time spent running the application-specific speed
	// benchmark — overhead introduced by the adaptation support itself.
	Bench
	numBuckets
)

// String implements fmt.Stringer.
func (b Bucket) String() string {
	switch b {
	case Busy:
		return "busy"
	case Intra:
		return "intra"
	case Inter:
		return "inter"
	case Bench:
		return "bench"
	default:
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
}

// Accumulator collects one node's time accounting for the current
// monitoring period. Idle time is implicit: whatever part of the
// period is not covered by any bucket. Not safe for concurrent use;
// the real runtime wraps it in the node's own lock.
type Accumulator struct {
	node    core.NodeID
	cluster core.ClusterID

	periodStart float64
	buckets     [numBuckets]float64

	speed      float64 // latest measured speed (work units/s)
	interBytes float64 // bytes moved across clusters this period
	links      map[core.ClusterID]core.LinkSample
}

// NewAccumulator starts accounting for a node at time now.
func NewAccumulator(node core.NodeID, cluster core.ClusterID, now float64) *Accumulator {
	return &Accumulator{node: node, cluster: cluster, periodStart: now}
}

// Add records d seconds of activity in bucket b. Negative d panics.
func (a *Accumulator) Add(b Bucket, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative duration %v for %v", d, b))
	}
	a.buckets[b] += d
}

// AddLinkSample records one inter-cluster transfer with a peer cluster:
// its wire time and payload size — the raw material of the paper's
// per-cluster-pair bandwidth estimation ("measuring data transfer
// times").
func (a *Accumulator) AddLinkSample(peer core.ClusterID, seconds, bytes float64) {
	if seconds < 0 || bytes < 0 {
		panic(fmt.Sprintf("metrics: negative link sample (%v s, %v B) for peer %s", seconds, bytes, peer))
	}
	if a.links == nil {
		a.links = make(map[core.ClusterID]core.LinkSample)
	}
	a.links[peer] = a.links[peer].Plus(core.LinkSample{Seconds: seconds, Bytes: bytes})
}

// AddInterBytes records payload moved across clusters (for bandwidth
// estimation feeding the learned minimum-bandwidth requirement).
func (a *Accumulator) AddInterBytes(n float64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative byte count %v", n))
	}
	a.interBytes += n
}

// SetSpeed records the latest benchmark measurement.
func (a *Accumulator) SetSpeed(s float64) { a.speed = s }

// Report is one node's statistics for one completed monitoring period.
type Report struct {
	Node    core.NodeID
	Cluster core.ClusterID

	Start, End float64 // period bounds, seconds

	BusySec  float64 // useful work
	IntraSec float64 // intra-cluster communication
	InterSec float64 // inter-cluster communication
	BenchSec float64 // benchmarking overhead
	IdleSec  float64 // remainder of the period

	Speed float64 // measured speed, work units/s

	// InterBandwidth is the achieved inter-cluster throughput this
	// period (bytes moved / seconds spent in inter-cluster
	// communication); 0 when no inter traffic happened.
	InterBandwidth float64

	// Links carries per-peer-cluster transfer samples (nil when
	// untracked) for pair-bandwidth estimation.
	Links map[core.ClusterID]core.LinkSample
}

// Duration returns the period length in seconds.
func (r Report) Duration() float64 { return r.End - r.Start }

// Stats converts the report to the fractions core's decision engine
// consumes. Benchmark time counts as idle: it is not useful application
// work, and folding it in means the adaptation overhead is visible to
// the efficiency metric rather than hidden from it.
func (r Report) Stats() core.NodeStats {
	dur := r.Duration()
	if dur <= 0 {
		return core.NodeStats{Node: r.Node, Cluster: r.Cluster, Speed: r.Speed}
	}
	frac := func(s float64) float64 {
		f := s / dur
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	st := core.NodeStats{
		Node:      r.Node,
		Cluster:   r.Cluster,
		Speed:     r.Speed,
		Idle:      frac(r.IdleSec + r.BenchSec),
		IntraComm: frac(r.IntraSec),
		InterComm: frac(r.InterSec),
	}
	if len(r.Links) > 0 {
		st.Links = make(map[core.ClusterID]core.LinkSample, len(r.Links))
		for peer, l := range r.Links {
			st.Links[peer] = l
		}
	}
	return st
}

// Snapshot closes the current period at time now, returning its Report
// and resetting the accumulator for the next period. The measured
// speed carries over (it is remeasured on the benchmark's own
// schedule, not the monitoring period's).
func (a *Accumulator) Snapshot(now float64) Report {
	dur := now - a.periodStart
	if dur < 0 {
		panic(fmt.Sprintf("metrics: snapshot at %v before period start %v", now, a.periodStart))
	}
	covered := 0.0
	for _, v := range a.buckets {
		covered += v
	}
	idle := dur - covered
	if idle < 0 {
		// Activities that straddle the period boundary are attributed to
		// the period they complete in, which can overfill it slightly;
		// clamp rather than report negative idle.
		idle = 0
	}
	r := Report{
		Node:     a.node,
		Cluster:  a.cluster,
		Start:    a.periodStart,
		End:      now,
		BusySec:  a.buckets[Busy],
		IntraSec: a.buckets[Intra],
		InterSec: a.buckets[Inter],
		BenchSec: a.buckets[Bench],
		IdleSec:  idle,
		Speed:    a.speed,
	}
	if a.buckets[Inter] > 0 {
		r.InterBandwidth = a.interBytes / a.buckets[Inter]
	}
	if len(a.links) > 0 {
		r.Links = a.links
	}
	a.periodStart = now
	a.buckets = [numBuckets]float64{}
	a.interBytes = 0
	a.links = nil
	return r
}
