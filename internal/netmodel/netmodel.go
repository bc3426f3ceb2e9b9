// Package netmodel models the grid's network for the discrete-event
// simulator: per-cluster LANs (latency + bandwidth, uncontended thanks
// to switched Fast Ethernet) and per-cluster uplinks to the WAN
// backbone, modelled as FIFO pipes through which all of a cluster's
// inter-site traffic serialises. Uplink bandwidth can be changed
// mid-simulation, which is how the experiments reproduce the paper's
// traffic-shaping scenario (an uplink throttled to ~100 KB/s).
package netmodel

import (
	"fmt"

	"repro/internal/topo"
	"repro/internal/vtime"
)

// Pipe is a FIFO link: transfers queue behind each other and each takes
// size/bandwidth seconds of link time, plus the link's one-way latency
// added once per traversal.
type Pipe struct {
	bandwidth float64    // bytes/s
	latency   float64    // seconds, one-way
	free      vtime.Time // when the link next becomes free

	// accounting for bandwidth estimation (the coordinator learns the
	// application's minimum bandwidth requirement from these)
	bytes    float64
	busyTime float64
}

// NewPipe returns a pipe with the given capacity and one-way latency.
func NewPipe(bandwidth, latency float64) *Pipe {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netmodel: non-positive bandwidth %v", bandwidth))
	}
	return &Pipe{bandwidth: bandwidth, latency: latency}
}

// SetBandwidth changes the link capacity from now on; queued transfers
// keep their completion times (the change models slow background-
// traffic shifts, not per-packet fairness). The observation counters
// reset: a shaped link is a new regime, and bandwidth estimates mixing
// the old capacity would inflate any requirement learned from them.
func (p *Pipe) SetBandwidth(bw float64) {
	if bw <= 0 {
		panic(fmt.Sprintf("netmodel: non-positive bandwidth %v", bw))
	}
	p.bandwidth = bw
	p.bytes = 0
	p.busyTime = 0
}

// Bandwidth returns the current capacity in bytes/s.
func (p *Pipe) Bandwidth() float64 { return p.bandwidth }

// Latency returns the one-way latency in seconds.
func (p *Pipe) Latency() float64 { return p.latency }

// Transfer enqueues size bytes starting no earlier than now and returns
// the virtual time at which the last byte emerges from the link
// (including latency). The pipe stays busy until that time minus the
// latency, so subsequent transfers queue.
func (p *Pipe) Transfer(now vtime.Time, size float64) vtime.Time {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative transfer size %v", size))
	}
	start := now
	if p.free > start {
		start = p.free
	}
	dur := size / p.bandwidth
	p.free = start + vtime.Time(dur)
	p.bytes += size
	p.busyTime += dur
	return p.free + vtime.Time(p.latency)
}

// ObservedBandwidth is total bytes moved divided by link busy time — a
// coarse achieved-throughput estimate (equals capacity while loaded).
func (p *Pipe) ObservedBandwidth() float64 {
	if p.busyTime == 0 {
		return 0
	}
	return p.bytes / p.busyTime
}

// Net models the whole grid network for one topology.
type Net struct {
	lans    map[topo.ClusterID]*Pipe // per-cluster LAN fabric
	uplinks map[topo.ClusterID]*Pipe // per-cluster access link
	wanLat  map[topo.ClusterID]float64
}

// New builds the network for a topology.
func New(t topo.Topology) *Net {
	n := &Net{
		lans:    make(map[topo.ClusterID]*Pipe, len(t.Clusters)),
		uplinks: make(map[topo.ClusterID]*Pipe, len(t.Clusters)),
		wanLat:  make(map[topo.ClusterID]float64, len(t.Clusters)),
	}
	for _, c := range t.Clusters {
		// The LAN is switched: per-transfer bandwidth without queueing
		// against other nodes' transfers, modelled as an infinitely wide
		// pipe by computing duration inline in Intra below. We still keep
		// a Pipe for latency/bandwidth bookkeeping.
		n.lans[c.ID] = NewPipe(c.LANBandwidth, c.LANLatency)
		n.uplinks[c.ID] = NewPipe(c.UplinkBandwidth, c.WANLatency)
		n.wanLat[c.ID] = c.WANLatency
	}
	return n
}

// Uplink exposes a cluster's access link (for shaping in scenarios).
func (n *Net) Uplink(c topo.ClusterID) *Pipe { return n.uplinks[c] }

// LANLatency returns a cluster's one-way LAN latency.
func (n *Net) LANLatency(c topo.ClusterID) float64 {
	if p, ok := n.lans[c]; ok {
		return p.Latency()
	}
	return 0
}

// WANLatency returns the one-way site-to-site latency between two
// clusters (sum of both access latencies).
func (n *Net) WANLatency(from, to topo.ClusterID) float64 {
	return n.wanLat[from] + n.wanLat[to]
}

// Intra returns the delivery time of an intra-cluster message of size
// bytes sent at now within cluster c. Switched LAN: latency plus
// serialisation at LAN bandwidth, no cross-node contention.
func (n *Net) Intra(now vtime.Time, c topo.ClusterID, size float64) vtime.Time {
	p := n.lans[c]
	if p == nil {
		return now
	}
	return now + vtime.Time(p.Latency()+size/p.Bandwidth())
}

// Inter returns the delivery time of an inter-cluster message of size
// bytes from cluster a to cluster b sent at now. The payload must
// serialise through a's access link and through b's (the backbone
// itself is never the bottleneck); delivery is bounded by the slower
// of the two. Both reservations start at now: reserving the
// destination pipe only from the moment the payload clears the jammed
// source pipe would block unrelated traffic behind a future
// reservation, which a real link does not do.
func (n *Net) Inter(now vtime.Time, from, to topo.ClusterID, size float64) vtime.Time {
	up, down := n.uplinks[from], n.uplinks[to]
	if up == nil || down == nil {
		return now
	}
	d1 := up.Transfer(now, size)
	d2 := down.Transfer(now, size)
	if d2 > d1 {
		return d2
	}
	return d1
}

// Latency returns the one-way message latency between two clusters
// (LAN latency if equal, WAN otherwise) — used for small control
// messages such as steal requests, which don't consume link bandwidth.
func (n *Net) Latency(from, to topo.ClusterID) float64 {
	if from == to {
		return n.LANLatency(from)
	}
	return n.WANLatency(from, to)
}
