// Package adapt is the adaptation coordinator of the paper: an extra
// process that periodically collects per-processor statistics
// (communication and idle time fractions plus benchmarked speeds),
// computes the weighted average efficiency, and keeps it between the
// E_min/E_max thresholds by asking the grid scheduler for nodes or
// signalling the worst nodes to leave — all without any application
// performance model.
//
// The adaptation policy itself lives in internal/coord, shared with the
// discrete-event simulator (internal/des): this package is only the
// real-runtime driver. It feeds the kernel the reports arriving over
// the transport fabric, derives the live set from an Ibis-style
// registry, and applies the kernel's effects (provisioning via the grid
// scheduler, evicting via registry leave signals).
package adapt

import (
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

func init() {
	// "report" is shared with the satin package's sender side; Register
	// is idempotent for identical (kind, type) pairs.
	wire.Register[metrics.Report]("report")
}

// Re-exported core types so downstream users need only this package.
type (
	// NodeID identifies a processor.
	NodeID = core.NodeID
	// ClusterID identifies a site.
	ClusterID = core.ClusterID
	// NodeStats is one processor's per-period statistics.
	NodeStats = core.NodeStats
	// Thresholds holds E_min/E_max and the badness coefficients.
	Thresholds = core.Config
	// Decision is the engine's verdict for one monitoring period.
	Decision = core.Decision
	// Requirements is the learned blacklist + minimum bandwidth.
	Requirements = core.Requirements
	// StreamObs is one monitoring period's streaming observation.
	StreamObs = core.StreamObs
	// StreamSLOConfig tunes the streaming latency objective.
	StreamSLOConfig = core.StreamSLOConfig
)

// DefaultThresholds returns the paper's configuration: E_min 0.30,
// E_max 0.50, α/β/γ badness weights, 25% cluster-drop threshold.
func DefaultThresholds() Thresholds { return core.DefaultConfig() }

// DefaultStreamSLO returns the streaming objective's defaults for a
// latency target.
func DefaultStreamSLO(targetLatency float64) StreamSLOConfig {
	return core.DefaultStreamSLO(targetLatency)
}

// WeightedAverageEfficiency re-exports the paper's metric.
func WeightedAverageEfficiency(stats []NodeStats) float64 {
	return core.WeightedAverageEfficiency(stats)
}

// Provisioner supplies processors — the grid scheduler's role
// (satin.Grid implements it).
type Provisioner interface {
	// Provision starts up to n new nodes whose cluster uplink meets the
	// learned minimum bandwidth (0 = no bound), skipping any the veto
	// rejects, and returns how many actually started.
	Provision(n int, minBandwidth float64, veto func(NodeID, ClusterID) bool) int
}

// EndpointName is the coordinator's well-known transport endpoint.
const EndpointName = "coordinator"

// Config tunes the coordinator.
type Config struct {
	// Thresholds configure the decision engine (DefaultThresholds()).
	Thresholds Thresholds
	// Period is the monitoring period. Nodes report on their own
	// clocks; the coordinator decides once per period on whatever
	// reports are in (the paper tolerates the skew explicitly).
	Period time.Duration
	// Protected nodes are never removed — the node hosting the root of
	// the computation (and, in the paper's deployment, the process the
	// user started).
	Protected []NodeID
	// MonitorOnly computes and records but never acts ("runtime 3").
	MonitorOnly bool
	// Observer, when set, receives every period record right after it is
	// appended to History — the hook the observability recorder hangs on.
	// Called from the coordinator's tick goroutine outside any lock;
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
	// Thresholds then only contribute their badness weights.
	StreamSLO *core.StreamSLOConfig
	// Sharded runs the hierarchical tree's root (ISSUE 8): the
	// coordinator consumes ClusterSummary frames from sub-kernel-mode
	// SubCoordinators (StartSubKernel) instead of raw reports, so its
	// state and per-period message load are O(clusters).
	Sharded bool
	// Registry tunes the coordinator's registry client (zero = default
	// heartbeat/failure-detection intervals).
	Registry registry.Options
}

// PeriodRecord is one coordinator tick, kept for inspection. It is the
// same record type the simulator logs (Time is seconds since Start),
// emitted by the shared adaptation kernel.
type PeriodRecord = coord.PeriodRecord

// Annotation marks an adaptation event on the run's time axis.
type Annotation = coord.Annotation

// Coordinator is the running adaptation process.
type Coordinator struct {
	cfg   Config
	kern  *coord.Kernel     // subs and root in this process (nil when sharded)
	rootk *coord.RootKernel // root of a tree of SubCoordinators (nil otherwise)
	prov  Provisioner
	wc    *wire.Conn
	reg   *registry.Client
	start time.Time

	mu          sync.Mutex
	history     []PeriodRecord
	annotations []Annotation
	messages    int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start launches the coordinator on the fabric. It joins the registry
// with an empty cluster, which marks it as a non-worker (nodes never
// steal from it).
func Start(f transport.Fabric, prov Provisioner, cfg Config) (*Coordinator, error) {
	if cfg.Period == 0 {
		cfg.Period = 2 * time.Second
	}
	if cfg.Thresholds == (Thresholds{}) {
		cfg.Thresholds = DefaultThresholds()
	}
	ep, err := f.Endpoint(EndpointName)
	if err != nil {
		return nil, err
	}
	reg, err := registry.Join(f, registry.NodeInfo{ID: EndpointName, Cluster: ""}, cfg.Registry)
	if err != nil {
		ep.Close()
		return nil, err
	}
	c := &Coordinator{
		cfg:   cfg,
		prov:  prov,
		wc:    wire.New(ep),
		reg:   reg,
		start: time.Now(),
		stop:  make(chan struct{}),
	}
	th := cfg.Thresholds
	kcfg := coord.Config{
		Engine:      &th,
		MonitorOnly: cfg.MonitorOnly,
		Pressure:    cfg.Pressure,
	}
	if cfg.StreamSLO != nil {
		// A fresh objective per coordinator: StreamSLO carries hysteresis
		// state that must never be shared between kernels.
		obj, err := core.NewStreamSLO(*cfg.StreamSLO)
		if err != nil {
			reg.Close()
			c.wc.Close()
			return nil, err
		}
		kcfg.Objective = obj
	}
	if cfg.Sharded {
		rootk, err := coord.NewRoot(kcfg, runtimeActuator{c})
		if err != nil {
			reg.Close()
			c.wc.Close()
			return nil, err
		}
		c.rootk = rootk
		c.rootk.Protect(cfg.Protected...)
		wire.Handle(c.wc, c.onSummary)
	} else {
		kern, err := coord.New(kcfg, runtimeActuator{c})
		if err != nil {
			reg.Close()
			c.wc.Close()
			return nil, err
		}
		c.kern = kern
		c.kern.Protect(cfg.Protected...)
		wire.Handle(c.wc, c.onReport)
	}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Stop shuts the coordinator down. Safe to call multiple times and
// from concurrent goroutines.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
		c.reg.Close()
		c.wc.Close()
	})
}

// Protect marks a node as unremovable (e.g. after electing a new root
// host).
func (c *Coordinator) Protect(id NodeID) {
	if c.rootk != nil {
		c.rootk.Protect(id)
		return
	}
	c.kern.Protect(id)
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
	if c.rootk != nil {
		return c.rootk.Requirements()
	}
	return c.kern.Requirements()
}

// ObserveStream merges a streaming-workload observation into the
// coordinator's current monitoring period (the job driver calls it once
// per completed window). No-op when sharded: that root receives its
// stream partials inside ClusterSummary frames instead.
func (c *Coordinator) ObserveStream(o core.StreamObs) {
	if c.kern != nil {
		c.kern.ObserveStream(o)
	}
}

func (c *Coordinator) onReport(rep metrics.Report, _ wire.Meta) {
	c.kern.Report(rep)
	c.mu.Lock()
	c.messages++
	c.mu.Unlock()
}

// MessagesReceived counts the messages (node reports, or cluster
// summaries when sharded) the main coordinator handled — the load the
// §7 hierarchy is designed to cut.
func (c *Coordinator) MessagesReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages
}

func (c *Coordinator) loop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick is the driver's side of the adaptation loop: derive the live
// worker set from the registry, hand it to the shared kernel (which
// owns the whole Figure-2 policy), and log the period.
func (c *Coordinator) tick() {
	if c.rootk != nil {
		c.shardedTick()
		return
	}
	// Live workers according to the registry; the kernel drops reports
	// of departed nodes and tolerates missing reports of new ones —
	// both as in the paper.
	var live []NodeID
	for _, m := range c.reg.Members() {
		if m.Cluster != "" {
			live = append(live, m.ID)
		}
	}
	rec := c.kern.Tick(time.Since(c.start).Seconds(), live)
	c.mu.Lock()
	c.history = append(c.history, rec)
	c.mu.Unlock()
	if c.cfg.Observer != nil {
		c.cfg.Observer(rec)
	}
}

// runtimeActuator applies the kernel's effects through the real
// runtime: the grid scheduler provisions, the registry delivers leave
// signals. It deliberately does not implement coord.Migrator — the real
// scheduler cannot rank idle resources by application-specific speed.
type runtimeActuator struct{ c *Coordinator }

func (a runtimeActuator) Provision(n int, minBandwidth float64, veto coord.Veto) int {
	got := a.c.prov.Provision(n, minBandwidth, veto)
	if got > 0 {
		obs.Default.Counter("adapt/provisioned").Add(uint64(got))
	}
	return got
}

// Evict signals each victim to leave; a node whose signal fails (e.g.
// it already left) is not counted, so the kernel blacklists exactly the
// nodes that were told to go.
func (a runtimeActuator) Evict(victims []NodeID, reason string) []NodeID {
	evicted := make([]NodeID, 0, len(victims))
	for _, id := range victims {
		if err := a.c.reg.Signal(id, "leave"); err != nil {
			continue
		}
		evicted = append(evicted, id)
	}
	if len(evicted) > 0 {
		obs.Default.Counter("adapt/evicted").Add(uint64(len(evicted)))
	}
	return evicted
}

// ObservedBandwidth returns 0: the real deployment has no NWS-style
// link monitor, so the kernel falls back to the achieved per-report
// throughput (the capacity-preferred order is the kernel's).
func (a runtimeActuator) ObservedBandwidth(ClusterID) float64 { return 0 }

func (a runtimeActuator) Annotate(label string) {
	c := a.c
	c.mu.Lock()
	c.annotations = append(c.annotations, Annotation{
		Time: time.Since(c.start).Seconds(), Label: label,
	})
	c.mu.Unlock()
}

// ClusterNodes enumerates a cluster's live workers from the registry —
// the sharded root's whole-cluster eviction asks the runtime for the
// roster because the root kernel holds no per-node state.
func (a runtimeActuator) ClusterNodes(cl ClusterID) []NodeID {
	var out []NodeID
	for _, m := range a.c.reg.Members() {
		if m.Cluster == cl {
			out = append(out, m.ID)
		}
	}
	return out
}

var (
	_ coord.Actuator     = runtimeActuator{}
	_ coord.RootActuator = runtimeActuator{}
)
