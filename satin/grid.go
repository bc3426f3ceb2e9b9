package satin

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/transport"
)

// ClusterSpec is one emulated site: a capacity of identical processors.
type ClusterSpec struct {
	Name  ClusterID
	Nodes int
}

// NodePool is the scheduler substrate a grid allocates processors
// from. A private *sched.Pool (built by NewGrid when Pool is nil)
// preserves the single-job behaviour: the grid owns all capacity. A
// shared pool.Client hands the grid a fair-share-arbitrated slice of a
// pool owned by the multi-job service, so several grids in one process
// bid for the same processors instead of each assuming it owns them.
type NodePool interface {
	// AcquireN hands out up to n free nodes of one cluster.
	AcquireN(cluster ClusterID, n int) []sched.NodeRef
	// RequestBandwidth allocates up to n nodes, locality-aware, skipping
	// clusters below the minimum uplink bandwidth (0 = no bound).
	RequestBandwidth(n int, prefer []ClusterID, veto sched.Filter, minBW float64) []sched.NodeRef
	// Release returns a node to the pool (graceful leave).
	Release(ref sched.NodeRef)
	// FreeIn returns the free node count of one cluster.
	FreeIn(cluster ClusterID) int
	// MarkDead permanently removes a crashed node.
	MarkDead(node NodeID)
}

// GridConfig describes an emulated multi-cluster deployment: clusters
// joined by WAN links, all inside one process. The link emulation
// (latency + bandwidth, shapeable at runtime) is what lets the real
// runtime reproduce the paper's scenarios without five universities.
type GridConfig struct {
	Clusters []ClusterSpec

	// Pool, when set, is the shared node pool this grid allocates from
	// (typically a pool.Client with fair-share arbitration). The grid
	// then never assumes it owns the scheduler: every StartNodes and
	// Provision is a bid that may be granted only partially. Nil means
	// the grid builds a private pool over Clusters — the single-job
	// behaviour.
	Pool NodePool

	LANLatency time.Duration // default 200µs
	WANLatency time.Duration // default 5ms

	// Registry is the deployment's membership timing. The grid's registry
	// server runs on it and tells every client (nodes, the coordinator)
	// its heartbeat interval, so it is stated here and nowhere else.
	Registry registry.Options

	// Seed makes a whole-grid run reproducible from one value: every
	// node's RNG derives its stream from it (steal.SeedFor: Seed ^
	// hash(nodeID)), and seeded deployments log it on startup so a
	// failure report carries everything needed to replay the run.
	Seed int64

	// WrapFabric, when set, wraps the grid's in-process fabric before
	// the registry or any node attaches. The chaos harness interposes
	// its fault-injecting transport here; everything — steal traffic,
	// reports, heartbeats — then flows through the wrapper.
	WrapFabric func(transport.Fabric) transport.Fabric

	// Node carries the per-node defaults (benchmark, monitoring,
	// coordinator endpoint, steal timeouts and policy); ID/Cluster/Fabric
	// are filled per started node, and Seed is filled from the grid-level
	// Seed above.
	Node NodeConfig
}

// The emulated links' bandwidths in bytes/s: a cluster's WAN uplink
// runs at wanBandwidth unless Grid.Shape throttles it.
const (
	lanBandwidth = 100e6
	wanBandwidth = 50e6
)

func (c *GridConfig) defaults() {
	if c.LANLatency == 0 {
		c.LANLatency = 200 * time.Microsecond
	}
	if c.WANLatency == 0 {
		c.WANLatency = 5 * time.Millisecond
	}
}

// Topology is the deployment as a scheduler pool sees it, link defaults
// applied: the one conversion behind a grid's private pool and the
// multi-job service's shared one, so node IDs and bandwidth bounds
// agree between them.
func (c GridConfig) Topology() topo.Topology {
	c.defaults()
	var t topo.Topology
	for _, cl := range c.Clusters {
		t.Clusters = append(t.Clusters, topo.Cluster{
			ID: cl.Name, Nodes: cl.Nodes, Speed: 1,
			LANLatency: c.LANLatency.Seconds(), LANBandwidth: lanBandwidth,
			WANLatency: c.WANLatency.Seconds() / 2, UplinkBandwidth: wanBandwidth,
		})
	}
	return t
}

// Grid is a running emulated deployment. It doubles as the scheduler
// (Zorilla's role): the adaptation coordinator asks it for nodes via
// Provision and removes them through registry signals.
type Grid struct {
	cfg    GridConfig
	inproc *transport.InProc // the raw emulated network (owned, closed last)
	fabric transport.Fabric  // what everyone attaches to (possibly wrapped)
	regSrv *registry.Server
	pool   NodePool

	mu     sync.Mutex
	nodes  map[NodeID]*Node
	shaped map[ClusterID]float64 // WAN bandwidth override per cluster
	load   map[ClusterID]float64 // ambient load applied to new nodes
	closed bool                  // halting or halted: nodes that start now are stopped

	haltOnce, closeOnce sync.Once
	halted              []*Node // stopped by Halt, torn down by Close
}

// NewGrid builds the fabric, registry and scheduler pool.
func NewGrid(cfg GridConfig) (*Grid, error) {
	cfg.defaults()
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("satin: grid needs at least one cluster")
	}
	pool := cfg.Pool
	if pool == nil {
		// Single-job deployment: the grid owns a private pool over its
		// own clusters. A multi-job service passes a shared pool.Client
		// instead, so capacity is arbitrated across grids.
		p, err := sched.NewPool(cfg.Topology())
		if err != nil {
			return nil, err
		}
		pool = p
	}
	g := &Grid{
		cfg:    cfg,
		pool:   pool,
		nodes:  make(map[NodeID]*Node),
		shaped: make(map[ClusterID]float64),
		load:   make(map[ClusterID]float64),
	}
	if g.cfg.Node.Epoch.IsZero() {
		// One shared report-timeline origin for every node this grid
		// starts, including later Provisions — per grid, never
		// process-wide.
		g.cfg.Node.Epoch = time.Now()
	}
	g.inproc = transport.NewInProc(g.link)
	g.fabric = g.inproc
	if cfg.WrapFabric != nil {
		g.fabric = cfg.WrapFabric(g.inproc)
	}
	if cfg.Seed != 0 {
		g.cfg.Node.Seed = cfg.Seed
		log.Printf("satin: grid seed=%d (%d clusters)", cfg.Seed, len(cfg.Clusters))
	}
	srv, err := registry.NewServer(g.fabric, cfg.Registry)
	if err != nil {
		g.inproc.Close()
		return nil, err
	}
	g.regSrv = srv
	return g, nil
}

// Fabric exposes the grid's transport (the coordinator attaches here).
func (g *Grid) Fabric() transport.Fabric { return g.fabric }

// Registry exposes the central registry server.
func (g *Grid) Registry() *registry.Server { return g.regSrv }

// link computes the current emulated parameters of a directed link.
func (g *Grid) link(from, to string) transport.LinkParams {
	cf, ct := topo.ClusterOf(from), topo.ClusterOf(to)
	if cf != "" && cf == ct {
		return transport.LinkParams{Latency: g.cfg.LANLatency, Bandwidth: lanBandwidth}
	}
	bw := wanBandwidth
	g.mu.Lock()
	for _, c := range []ClusterID{cf, ct} {
		if c == "" {
			continue
		}
		if s, ok := g.shaped[c]; ok && s < bw {
			bw = s
		}
	}
	g.mu.Unlock()
	lat := g.cfg.WANLatency
	if cf == "" || ct == "" {
		lat = g.cfg.WANLatency / 2 // infrastructure sits on the backbone
	}
	return transport.LinkParams{Latency: lat, Bandwidth: bw}
}

// Shape throttles (or restores) a cluster's WAN bandwidth at runtime —
// the paper's traffic-shaping experiment.
func (g *Grid) Shape(cluster ClusterID, bandwidth float64) {
	g.mu.Lock()
	if bandwidth <= 0 {
		delete(g.shaped, cluster)
	} else {
		g.shaped[cluster] = bandwidth
	}
	g.mu.Unlock()
}

// SetClusterLoad puts a competing CPU load on every current node of a
// cluster and on nodes started there later.
func (g *Grid) SetClusterLoad(cluster ClusterID, factor float64) {
	g.mu.Lock()
	g.load[cluster] = factor
	var affected []*Node
	for _, n := range g.nodes {
		if n.Cluster() == cluster {
			affected = append(affected, n)
		}
	}
	g.mu.Unlock()
	for _, n := range affected {
		n.SetLoadFactor(factor)
	}
}

// StartNodes brings count nodes of one cluster into the computation, or
// none when the cluster has fewer free. The nodes come back in ref
// order; when some fail to start, the others stay up and are returned
// with the first error.
func (g *Grid) StartNodes(cluster ClusterID, count int) ([]*Node, error) {
	refs := g.pool.AcquireN(cluster, count)
	if len(refs) < count {
		for _, r := range refs {
			g.pool.Release(r)
		}
		return nil, fmt.Errorf("satin: cluster %s has only %d free nodes, need %d",
			cluster, g.pool.FreeIn(cluster), count)
	}
	return g.startAll(refs)
}

// startAll is a deployment step: it starts every ref and returns once
// each node's worker runs, without waiting for any registry join ack, so
// the step costs no backbone round trip however many nodes it brings in.
// A node learns its peers when its ack arrives; join order is whatever
// the network makes it and is an input to nothing: every node's
// membership view, and with it each seeded victim stream, is rebuilt in
// ID order. A node whose join later gives up stops like a crashed one
// and its ref goes back to the pool. A ref that fails to start has been
// released by startRef; the rest are returned in ref order with the
// first error.
func (g *Grid) startAll(refs []sched.NodeRef) ([]*Node, error) {
	var started []*Node
	var first error
	for _, ref := range refs {
		n, err := g.startRef(ref)
		if err == nil {
			started = append(started, n)
		} else if first == nil {
			first = err
		}
	}
	return started, first
}

// startRef starts one node on an acquired ref and enters it in the
// grid's books; on failure the ref goes back to the pool.
func (g *Grid) startRef(ref sched.NodeRef) (*Node, error) {
	cfg := g.cfg.Node
	cfg.ID = ref.Node
	cfg.Cluster = ref.Cluster
	cfg.Fabric = g.fabric
	if cfg.LocalStealTimeout == 0 {
		// The grid knows the link a local steal crosses: 25 round trips
		// of it, not the quarter second a node without that knowledge
		// assumes, so a thief whose victim died mid-request moves on.
		cfg.LocalStealTimeout = max(50*g.cfg.LANLatency, 5*time.Millisecond)
	}
	n, err := startNode(cfg, func(stopped *Node) {
		g.mu.Lock()
		delete(g.nodes, stopped.ID())
		g.mu.Unlock()
		g.pool.Release(ref)
	})
	if err != nil {
		g.pool.Release(ref)
		return nil, fmt.Errorf("satin: start of %s: %w", ref.Node, err)
	}
	g.mu.Lock()
	if g.closed || n.Stopped() {
		// Close has taken its snapshot of g.nodes and will not see this
		// one, or its join already gave up: keep it out of the books and
		// stop it (a no-op if stopped), so onStop has released the ref.
		g.mu.Unlock()
		n.Kill()
		return nil, fmt.Errorf("satin: start of %s: stopped while starting", ref.Node)
	}
	if f := g.load[ref.Cluster]; f > 0 {
		n.SetLoadFactor(f)
	}
	g.nodes[n.ID()] = n
	g.mu.Unlock()
	return n, nil
}

// Provision implements "give me n nodes" with Zorilla-style locality:
// clusters already in use first, in the scheduler's order
// (sched.LocalityOrder), then the others by descending free capacity, so
// the nodes land on as few sites as possible. It is the placement of a
// job's first nodes and of every grow the coordinator makes. The grant
// is started as one step and the call returns how many of it came up.
// Clusters whose uplink is below the coordinator's learned minimum
// bandwidth are never handed out (minBandwidth 0 = no bound).
func (g *Grid) Provision(count int, minBandwidth float64, veto func(NodeID, ClusterID) bool) int {
	g.mu.Lock()
	per := make(map[ClusterID]int)
	for _, n := range g.nodes {
		per[n.Cluster()]++
	}
	g.mu.Unlock()
	refs := g.pool.RequestBandwidth(count, sched.LocalityOrder(per), veto, minBandwidth)
	started, _ := g.startAll(refs)
	return len(started)
}

// Node returns a live node by ID (nil if gone).
func (g *Grid) Node(id NodeID) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id]
}

// Nodes returns the live nodes.
func (g *Grid) Nodes() []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	return out
}

// NodeCount returns the number of live nodes.
func (g *Grid) NodeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// CrashCluster kills every node of a cluster abruptly and marks the
// capacity dead in the scheduler, so replacements must come from
// elsewhere — the paper's crash scenario.
func (g *Grid) CrashCluster(cluster ClusterID) int {
	// Kill the free capacity FIRST so a concurrent Provision cannot
	// start fresh nodes on the dying site between the live-victim
	// snapshot and their deaths.
	for {
		refs := g.pool.AcquireN(cluster, 1)
		if len(refs) == 0 {
			break
		}
		g.pool.MarkDead(refs[0].Node)
		g.pool.Release(refs[0])
	}
	g.mu.Lock()
	var victims []*Node
	for _, n := range g.nodes {
		if n.Cluster() == cluster {
			victims = append(victims, n)
		}
	}
	g.mu.Unlock()
	for _, n := range victims {
		g.pool.MarkDead(n.ID())
		n.Kill()
	}
	return len(victims)
}

// Halt is the first phase of Close: every node stops computing,
// stealing, serving and reporting while every endpoint is still
// attached, and a node that starts from now on is stopped at once. An
// adaptive job halts its grid before it stops its coordinator, so that
// no node reports to a sub-coordinator that is gone.
func (g *Grid) Halt() {
	g.haltOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		var all []*Node
		for _, n := range g.nodes {
			all = append(all, n)
		}
		g.mu.Unlock()
		halted := all[:0]
		for _, n := range all {
			if n.halt() {
				halted = append(halted, n)
			}
		}
		for _, n := range halted {
			n.quiesce()
		}
		g.halted = halted
	})
}

// Close tears the whole deployment down, in two phases: Halt, then
// endpoints, registry and fabric close. Killing the nodes one after
// another left the survivors stealing from endpoints already gone,
// which a healthy run then counted as wire/send_err.
func (g *Grid) Close() {
	g.Halt()
	g.closeOnce.Do(func() {
		for _, n := range g.halted {
			n.teardown()
		}
		g.halted = nil
		g.regSrv.Close()
		g.inproc.Close()
	})
}
