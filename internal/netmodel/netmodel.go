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

// lat is the pipe's latency, 0 for a link the topology does not have.
func (p *Pipe) lat() float64 {
	if p == nil {
		return 0
	}
	return p.latency
}

// Net models the whole grid network for one topology.
type Net struct {
	lans    map[topo.ClusterID]*Pipe // per-cluster LAN fabric
	uplinks map[topo.ClusterID]*Pipe // per-cluster access link
}

// New builds the network for a topology.
func New(t topo.Topology) *Net {
	n := &Net{
		lans:    make(map[topo.ClusterID]*Pipe, len(t.Clusters)),
		uplinks: make(map[topo.ClusterID]*Pipe, len(t.Clusters)),
	}
	for _, c := range t.Clusters {
		// The LAN is switched: per-transfer bandwidth without queueing
		// against other nodes' transfers, modelled as an infinitely wide
		// pipe by computing duration inline in Site.Intra below. We still
		// keep a Pipe for latency/bandwidth bookkeeping.
		n.lans[c.ID] = NewPipe(c.LANBandwidth, c.LANLatency)
		n.uplinks[c.ID] = NewPipe(c.UplinkBandwidth, c.WANLatency)
	}
	return n
}

// Uplink exposes a cluster's access link (for shaping in scenarios).
func (n *Net) Uplink(c topo.ClusterID) *Pipe { return n.uplinks[c] }

// Site is one cluster's two links. A caller that sends from or to a
// cluster again and again keeps its Site, and so skips the lookups by
// name that the Net's methods make on every message.
type Site struct{ lan, uplink *Pipe }

// Site returns a cluster's links. A cluster the topology does not have
// gets a Site whose messages arrive at once.
func (n *Net) Site(c topo.ClusterID) Site { return Site{n.lans[c], n.uplinks[c]} }

// Intra is Site.Intra for cluster c.
func (n *Net) Intra(now vtime.Time, c topo.ClusterID, size float64) vtime.Time {
	return n.Site(c).Intra(now, size)
}

// Inter is Site.Inter from cluster from to cluster to.
func (n *Net) Inter(now vtime.Time, from, to topo.ClusterID, size float64) vtime.Time {
	return n.Site(from).Inter(now, n.Site(to), size)
}

// Latency returns the one-way message latency between two clusters
// (LAN latency if equal, WAN otherwise) — used for small control
// messages such as steal requests, which don't consume link bandwidth.
func (n *Net) Latency(from, to topo.ClusterID) float64 {
	return n.Site(from).Latency(n.Site(to))
}

// Intra returns the delivery time of a message of size bytes sent at
// now within the site. Switched LAN: latency plus serialisation at LAN
// bandwidth, no cross-node contention.
func (a Site) Intra(now vtime.Time, size float64) vtime.Time {
	if a.lan == nil {
		return now
	}
	return now + vtime.Time(a.lan.latency+size/a.lan.bandwidth)
}

// Inter returns the delivery time of a message of size bytes from site
// a to site b sent at now. The payload must serialise through a's
// access link and through b's (the backbone itself is never the
// bottleneck); delivery is bounded by the slower of the two. Both
// reservations start at now: reserving the destination pipe only from
// the moment the payload clears the jammed source pipe would block
// unrelated traffic behind a future reservation, which a real link
// does not do.
func (a Site) Inter(now vtime.Time, b Site, size float64) vtime.Time {
	if a.uplink == nil || b.uplink == nil {
		return now
	}
	d1 := a.uplink.Transfer(now, size)
	d2 := b.uplink.Transfer(now, size)
	if d2 > d1 {
		return d2
	}
	return d1
}

// Latency returns the one-way message latency from site a to site b:
// the LAN's within a site, both access links' across sites.
func (a Site) Latency(b Site) float64 {
	if a == b {
		return a.lan.lat()
	}
	return a.uplink.lat() + b.uplink.lat()
}
