// Package adapt is the adaptation coordinator of the paper: an extra
// process that periodically collects per-processor statistics
// (communication and idle time fractions plus benchmarked speeds),
// computes the weighted average efficiency, and keeps it between the
// E_min/E_max thresholds by asking the grid scheduler for nodes or
// signalling the worst nodes to leave — all without any application
// performance model.
//
// The adaptation policy and the coordinator tree's protocol live in
// internal/coord, shared with the discrete-event simulator
// (internal/des): this package is only the real-runtime driver. Start
// always runs the paper's §7 tree — a root over one sub-coordinator per
// cluster, a single cluster being the degenerate case — so the root's
// state and message load are O(clusters) and a dead root is replaced by
// election. The driver moves the protocol's frames over the transport
// fabric, derives the live sets from an Ibis-style registry, and
// applies the root's effects (provisioning via the grid scheduler,
// evicting via registry leave signals).
package adapt

import (
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

func init() {
	// "report" is shared with the satin package's sender side; Register
	// is idempotent for identical (kind, type) pairs.
	wire.Register[metrics.Report]("report")
	wire.Register[coord.ClusterSummary]("cluster-summary")
	wire.Register[coord.SummaryAck]("summary-ack")
	wire.Register[coord.ShardReset]("shard-reset")
}

// Re-exported core types so downstream users need only this package.
type (
	// NodeID identifies a processor.
	NodeID = core.NodeID
	// ClusterID identifies a site.
	ClusterID = core.ClusterID
	// NodeStats is one processor's per-period statistics.
	NodeStats = core.NodeStats
	// Requirements is the learned blacklist + minimum bandwidth.
	Requirements = core.Requirements
	// StreamObs is one monitoring period's streaming observation.
	StreamObs = core.StreamObs
	// StreamSLOConfig tunes the streaming latency objective.
	StreamSLOConfig = core.StreamSLOConfig
)

// Provisioner supplies processors — the grid scheduler's role
// (satin.Grid implements it).
type Provisioner interface {
	// Provision starts up to n new nodes whose cluster uplink meets the
	// learned minimum bandwidth (0 = no bound), skipping any the veto
	// rejects, and returns how many actually started.
	Provision(n int, minBandwidth float64, veto func(NodeID, ClusterID) bool) int
}

// EndpointName is the root coordinator's well-known transport endpoint
// (what NodeConfig.Coordinator is set to).
const EndpointName = "coordinator"

// SubEndpointName is the per-cluster endpoint a cluster's nodes report
// to.
func SubEndpointName(cluster ClusterID) string {
	return topo.SubCoordinatorEndpoint(EndpointName, cluster)
}

// Config tunes the coordinator. The decision engine runs the paper's
// configuration, core.DefaultConfig: E_min 0.30, E_max 0.50, the α/β/γ
// badness weights and the cluster-drop thresholds.
type Config struct {
	// Period is the monitoring period. Nodes report on their own
	// clocks; once per period the root decides on the summaries the
	// sub-coordinators sent the period before, whatever reports those
	// held (the paper tolerates the skew explicitly).
	Period time.Duration
	// Protected nodes are never removed. The first is the node hosting
	// the root of the computation (in the paper's deployment, the
	// process the user started); ObserveStream lands at its cluster.
	Protected []NodeID
	// MonitorOnly computes and records but never acts ("runtime 3").
	MonitorOnly bool
	// Observer, when set, receives every period record right after it is
	// appended to History — the hook the observability recorder hangs on.
	// Called from the coordinator's clock goroutine outside any lock;
	// keep it fast and never call back into the coordinator.
	Observer func(PeriodRecord)
	// Pressure, when set, is the shared node pool's reclaim signal
	// (pool.Client.Pressure): how many nodes this job holds beyond its
	// fair share while other jobs are starved. The kernel yields that
	// many of its worst nodes — without blacklisting them — at the next
	// tick. Leave nil for single-job deployments that own their pool.
	Pressure func() int
	// StreamSLO switches the coordinator to the streaming latency
	// objective (core.StreamSLO) instead of the WAE band: the job's
	// driver feeds period observations through ObserveStream and the
	// kernel grows or shrinks to keep mean latency at the target.
	// The engine configuration then only contributes its badness
	// weights.
	StreamSLO *core.StreamSLOConfig
}

// PeriodRecord is one coordinator tick, kept for inspection. It is the
// same record type the simulator logs (Time is seconds since Start),
// emitted by the shared adaptation kernel.
type PeriodRecord = coord.PeriodRecord

// Annotation marks an adaptation event on the run's time axis.
type Annotation = coord.Annotation

// Coordinator is the running adaptation process: it owns the tree's
// sub-coordinators and whichever root incarnation is current, so the
// history, annotations and learned requirements read as one across a
// root failover and Stop stops everything.
type Coordinator struct {
	cfg   Config
	prov  Provisioner
	f     transport.Fabric
	reg   *registry.Client // the tree's one registry session: census, signals
	start time.Time

	mu          sync.Mutex
	history     []PeriodRecord
	annotations []Annotation
	messages    int
	root        *root // current incarnation; a dead one stays until its successor replaces it
	subs        map[ClusterID]*sub

	arrived  chan struct{} // wake-up: the root took in a summary
	stop     chan struct{}
	done     chan struct{} // closed when loop has returned
	stopOnce sync.Once
}

// Start launches the coordinator tree on the fabric: the root, and one
// sub-coordinator for every cluster that has (or later gets) a worker
// in the registry. The tree joins the registry once, with an empty
// cluster, which marks it as a non-worker (nodes never steal from it),
// and heartbeats at the interval the registry server announces.
func Start(f transport.Fabric, prov Provisioner, cfg Config) (*Coordinator, error) {
	if cfg.Period == 0 {
		cfg.Period = 2 * time.Second
	}
	reg, err := registry.Join(f, registry.NodeInfo{ID: EndpointName}, registry.Options{})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		prov:    prov,
		f:       f,
		reg:     reg,
		start:   time.Now(),
		subs:    make(map[ClusterID]*sub),
		arrived: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := c.startRoot(nil); err != nil {
		reg.Close()
		return nil, err
	}
	for _, m := range reg.Members() {
		if m.Cluster != "" {
			c.ensureSub(m.Cluster)
		}
	}
	go c.loop()
	return c, nil
}

// Stop shuts the whole tree down. Safe to call multiple times and from
// concurrent goroutines.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done // the loop is the only writer of root and subs
		c.root.kill()
		for _, s := range c.subs {
			s.wc.Close()
		}
		c.reg.Close()
	})
}

// History returns the period records so far.
func (c *Coordinator) History() []PeriodRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PeriodRecord(nil), c.history...)
}

// Annotations returns the adaptation events recorded so far.
func (c *Coordinator) Annotations() []Annotation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Annotation(nil), c.annotations...)
}

// Requirements exposes what the run has taught the coordinator.
func (c *Coordinator) Requirements() *Requirements {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root.kern.Requirements()
}

// ObserveStream merges a streaming-workload observation into the
// current monitoring period (the job driver calls it once per completed
// window). It lands at the sub-coordinator of the master's cluster —
// where the driver runs — and reaches the root inside that cluster's
// next summary.
func (c *Coordinator) ObserveStream(o core.StreamObs) {
	c.mu.Lock()
	var at *sub
	if len(c.cfg.Protected) > 0 {
		for _, m := range c.reg.Members() {
			if m.ID == c.cfg.Protected[0] {
				at = c.subs[m.Cluster]
				break
			}
		}
	}
	c.mu.Unlock()
	if at == nil {
		obs.Default.Counter("adapt/stream_obs_dropped").Inc()
		return
	}
	at.link.ObserveStream(o)
}

// MessagesReceived counts the cluster summaries the root handled — per
// period O(clusters), not O(nodes), which is the load the §7 hierarchy
// is designed to cut.
func (c *Coordinator) MessagesReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages
}

// kernelConfig builds the configuration every root incarnation runs.
func (c *Coordinator) kernelConfig() (coord.Config, error) {
	th := core.DefaultConfig()
	kcfg := coord.Config{
		Engine:      &th,
		MonitorOnly: c.cfg.MonitorOnly,
		Pressure:    c.cfg.Pressure,
	}
	if c.cfg.StreamSLO != nil {
		// A fresh objective per root: StreamSLO carries hysteresis state
		// that must not outlive the kernel it advised.
		obj, err := core.NewStreamSLO(*c.cfg.StreamSLO)
		if err != nil {
			return kcfg, err
		}
		kcfg.Objective = obj
	}
	return kcfg, nil
}
