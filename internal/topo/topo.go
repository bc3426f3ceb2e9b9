// Package topo describes grid topologies: sites (clusters) of
// processors joined by a wide-area network, with per-cluster LAN
// characteristics and a per-cluster uplink to the backbone — the
// resource model of the paper's §2. It also ships the DAS-2 preset the
// paper evaluates on.
package topo

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Re-exported identifier types so callers need only one import.
type (
	// NodeID identifies a processor ("fs0/17").
	NodeID = core.NodeID
	// ClusterID identifies a site ("fs0").
	ClusterID = core.ClusterID
)

// Cluster describes one site: a set of identical processors on a fast
// LAN, attached to the WAN backbone through an uplink of finite
// bandwidth (the potential bottleneck the paper calls out).
type Cluster struct {
	ID    ClusterID
	Nodes int
	// Speed is each processor's base speed in work units per second.
	// Heterogeneity between sites is expressed here; heterogeneity over
	// time comes from load injection.
	Speed float64
	// LANLatency is the one-way intra-cluster message latency (seconds).
	LANLatency float64
	// LANBandwidth is the intra-cluster per-transfer bandwidth (bytes/s).
	LANBandwidth float64
	// WANLatency is the one-way latency from this cluster to the
	// backbone; cross-cluster latency is the sum of both sides (seconds).
	WANLatency float64
	// UplinkBandwidth is the capacity of the shared access link between
	// this cluster and the backbone (bytes/s). All inter-cluster traffic
	// of the cluster's nodes serialises through it.
	UplinkBandwidth float64
}

// Validate checks physical sanity.
func (c Cluster) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("topo: cluster with empty ID")
	}
	if c.Nodes < 0 {
		return fmt.Errorf("topo: cluster %s: negative node count %d", c.ID, c.Nodes)
	}
	if c.Speed <= 0 {
		return fmt.Errorf("topo: cluster %s: speed %v must be positive", c.ID, c.Speed)
	}
	if c.LANLatency < 0 || c.WANLatency < 0 {
		return fmt.Errorf("topo: cluster %s: negative latency", c.ID)
	}
	if c.LANBandwidth <= 0 || c.UplinkBandwidth <= 0 {
		return fmt.Errorf("topo: cluster %s: bandwidths must be positive", c.ID)
	}
	return nil
}

// Topology is a set of clusters.
type Topology struct {
	Clusters []Cluster
}

// Validate checks every cluster and ID uniqueness.
func (t Topology) Validate() error {
	if len(t.Clusters) == 0 {
		return fmt.Errorf("topo: topology with no clusters")
	}
	seen := make(map[ClusterID]bool, len(t.Clusters))
	for _, c := range t.Clusters {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.ID] {
			return fmt.Errorf("topo: duplicate cluster ID %s", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// TotalNodes sums the cluster sizes.
func (t Topology) TotalNodes() int {
	n := 0
	for _, c := range t.Clusters {
		n += c.Nodes
	}
	return n
}

// Cluster returns the cluster with the given ID.
func (t Topology) Cluster(id ClusterID) (Cluster, bool) {
	for _, c := range t.Clusters {
		if c.ID == id {
			return c, true
		}
	}
	return Cluster{}, false
}

// NodeName builds the canonical processor name for the i-th node of a
// cluster: "<cluster>/<index>" with a two-digit index.
func NodeName(c ClusterID, i int) NodeID {
	return NodeID(fmt.Sprintf("%s/%02d", c, i))
}

// SubCoordinatorEndpoint is the endpoint a cluster's nodes report to,
// derived from the main coordinator's endpoint name and the cluster:
// "<coordinator>:<cluster>/sub" — a name inside the cluster, like its
// nodes', so every endpoint-to-cluster parse of the runtime
// ("prefix:<cluster>/...") places the sub-coordinator on the cluster's
// LAN, behind the cluster's uplink.
func SubCoordinatorEndpoint(coordinator string, c ClusterID) string {
	return coordinator + ":" + string(c) + "/sub"
}

// ClusterOf is the inverse of the two name builders above, for every
// endpoint the runtime derives from them ("satin:fs0/03", "reg:fs0/03",
// "coordinator:fs0/sub"): it strips a "prefix:" and returns what stands
// before the first '/'. Infrastructure endpoints (the registry, the root
// coordinator) belong to no cluster and map to "".
func ClusterOf(endpoint string) ClusterID {
	if i := strings.IndexByte(endpoint, ':'); i >= 0 {
		endpoint = endpoint[i+1:]
	}
	if i := strings.IndexByte(endpoint, '/'); i >= 0 {
		return ClusterID(endpoint[:i])
	}
	return ""
}

// Uniform network constants used by the presets, chosen to match the
// paper's testbed description: Fast Ethernet LANs, Dutch university
// backbone WAN.
const (
	FastEthernetBandwidth = 12.5e6  // 100 Mbit/s in bytes/s
	LANLatency            = 0.00015 // 150 µs one-way
	BackboneUplink        = 60e6    // healthy uplink, far from saturation
	WANLatencyOneWay      = 0.0015  // 1.5 ms to backbone, 3 ms site-to-site
)

// DAS2 returns the Distributed ASCI Supercomputer 2 used in the paper's
// evaluation: five clusters at five Dutch universities, one of 72 nodes
// and four of 32 nodes, each node a dual 1 GHz Pentium III. Node speed
// is normalised to 1 work unit/second.
func DAS2() Topology {
	mk := func(id ClusterID, n int) Cluster {
		return Cluster{
			ID:              id,
			Nodes:           n,
			Speed:           1.0,
			LANLatency:      LANLatency,
			LANBandwidth:    FastEthernetBandwidth,
			WANLatency:      WANLatencyOneWay,
			UplinkBandwidth: BackboneUplink,
		}
	}
	return Topology{Clusters: []Cluster{
		mk("fs0", 72), // VU Amsterdam
		mk("fs1", 32), // Leiden
		mk("fs2", 32), // UvA Amsterdam
		mk("fs3", 32), // Delft
		mk("fs4", 32), // Utrecht
	}}
}
