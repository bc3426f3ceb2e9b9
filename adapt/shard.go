package adapt

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Sharded coordination for the real runtime (ISSUE 8): the
// SubCoordinator is a sub-kernel driver — it ingests its cluster's
// reports into a coord.SubKernel, emits one fixed-shape ClusterSummary
// per period, and watches the root's acks. When FailoverAfter
// consecutive periods pass without an ack the subs deterministically
// elect the lowest sub-endpoint name as successor; the winner claims
// the root endpoint (the claim doubles as the election lock — the
// fabric rejects a second claimant) and re-bootstraps requirements
// state from its own cached ReqState plus the caches riding on the next
// round of summaries.

func init() {
	wire.Register[coord.ClusterSummary]("cluster-summary")
	wire.Register[summaryAck]("summary-ack")
	wire.Register[shardReset]("shard-reset")
}

// summaryAck is the root's receipt for one ClusterSummary. It carries
// the root's reset epoch (how subs learn to drop pre-action reports,
// and how a restarted sub catches back up) and the current
// requirements snapshot (the failover seed the subs cache).
type summaryAck struct {
	Cluster ClusterID
	Seq     uint64
	Epoch   uint64
	Req     coord.ReqState
}

// shardReset is the root's eager post-action push: acting invalidates
// every sub's pending reports, and waiting a full period for the next
// ack would let one stale summary round through.
type shardReset struct {
	Epoch uint64
	Req   coord.ReqState
}

// SubConfig tunes a sub-coordinator.
type SubConfig struct {
	// Period is the summary period (matches the root's tick period).
	Period time.Duration
	// Thresholds supply the badness weights the sub pre-ranks eviction
	// proposals with; they must match the root's configuration.
	Thresholds Thresholds
	// ProposalCap bounds the eviction candidates per summary (0 = all
	// reporting nodes, so the root ranks exactly as coord.Kernel does).
	ProposalCap int
	// FailoverAfter is how many consecutive unacknowledged periods the
	// sub tolerates before triggering an election (default 2).
	FailoverAfter int
	// Root is the configuration a promoted successor runs the root
	// coordinator with (Sharded is forced on; zero Period/Thresholds
	// inherit the sub's).
	Root Config
	// Prov is the provisioner handed to a promoted root.
	Prov Provisioner
	// Registry tunes the sub's registry client.
	Registry registry.Options
}

// subShard is the sub-kernel and failover state of a SubCoordinator.
type subShard struct {
	kern  *coord.SubKernel
	reg   *registry.Client
	f     transport.Fabric
	cfg   SubConfig
	start time.Time

	// Guarded by the SubCoordinator mutex.
	missed     int  // consecutive periods without an ack
	pendingAck bool // summary sent, ack not yet seen
	epoch      uint64
	reqCache   coord.ReqState
	promoted   *Coordinator // root this sub elected itself into, if any
}

// StartSubKernel launches the sub-coordinator of one cluster: the
// cluster's nodes report to its endpoint, the wire to the main
// coordinator (which must run with Config.Sharded) carries one
// ClusterSummary per period, and the sub takes part in root failover.
func StartSubKernel(f transport.Fabric, cluster ClusterID, cfg SubConfig) (*SubCoordinator, error) {
	if cfg.Period == 0 {
		cfg.Period = 2 * time.Second
	}
	if cfg.Thresholds == (Thresholds{}) {
		cfg.Thresholds = DefaultThresholds()
	}
	if cfg.FailoverAfter == 0 {
		cfg.FailoverAfter = 2
	}
	ep, err := f.Endpoint(SubEndpointName(cluster))
	if err != nil {
		return nil, err
	}
	// Joining with an empty cluster marks the sub as a non-worker; the
	// "coordinator/" ID prefix is what its peers enumerate during an
	// election.
	reg, err := registry.Join(f, registry.NodeInfo{
		ID: NodeID(SubEndpointName(cluster)), Cluster: "",
	}, cfg.Registry)
	if err != nil {
		ep.Close()
		return nil, err
	}
	sc := &SubCoordinator{
		cluster: cluster,
		wc:      wire.New(ep),
		main:    EndpointName,
		period:  cfg.Period,
		stop:    make(chan struct{}),
		shard: &subShard{
			kern:  coord.NewSubKernel(cluster, cfg.ProposalCap, cfg.Thresholds.Weights),
			reg:   reg,
			f:     f,
			cfg:   cfg,
			start: time.Now(),
		},
	}
	wire.Handle(sc.wc, sc.onReport)
	wire.Handle(sc.wc, sc.onAck)
	wire.Handle(sc.wc, sc.onShardReset)
	sc.wg.Add(1)
	go sc.loop()
	return sc, nil
}

// ObserveStream merges this cluster's share of a streaming-workload
// observation into the sub-kernel's current period; the next summary
// ships it to the root as ClusterSummary stream aggregates, where the
// partials of all clusters sum into the global observation the root's
// StreamSLO objective judges.
func (sc *SubCoordinator) ObserveStream(o core.StreamObs) {
	sc.shard.kern.ObserveStream(o)
}

// Promoted returns the root coordinator this sub elected itself into,
// or nil. The promoted root runs independently of the sub (which keeps
// serving its own cluster) and must be stopped separately.
func (sc *SubCoordinator) Promoted() *Coordinator {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.shard.promoted
}

// shardTick runs one sub period: summarize the cluster's reports, send
// the frame, account the root's silence, and — past the failover
// threshold — run the election.
func (sc *SubCoordinator) shardTick() {
	sh := sc.shard
	var live []NodeID
	for _, m := range sh.reg.Members() {
		if m.Cluster == sc.cluster {
			live = append(live, m.ID)
		}
	}
	sc.mu.Lock()
	if sh.pendingAck {
		// Last period's summary vanished without a receipt.
		sh.missed++
		sh.pendingAck = false
	}
	epoch, req := sh.epoch, sh.reqCache
	sc.mu.Unlock()

	sum := sh.kern.Summarize(time.Since(sh.start).Seconds(), live)
	sum.Epoch = epoch
	sum.Req = req
	if err := wire.Send(sc.wc, sc.main, sum); err != nil {
		// The root endpoint is gone — the fabric fails the send
		// synchronously, which counts as a missed ack immediately.
		obs.Default.Counter("adapt/summary_send_failures").Inc()
		sc.mu.Lock()
		sh.missed++
		sc.mu.Unlock()
	} else {
		sc.mu.Lock()
		sh.pendingAck = true
		sc.mu.Unlock()
	}

	sc.mu.Lock()
	starved := sh.missed >= sh.cfg.FailoverAfter && sh.promoted == nil
	sc.mu.Unlock()
	if starved {
		sc.tryElect()
	}
}

// onAck processes the root's receipt: reset the silence counter, cache
// the requirements snapshot, and adopt a newer reset epoch (dropping
// the pre-action reports).
func (sc *SubCoordinator) onAck(ack summaryAck, _ wire.Meta) {
	sh := sc.shard
	if ack.Cluster != sc.cluster {
		return
	}
	sc.mu.Lock()
	sh.pendingAck = false
	sh.missed = 0
	sh.reqCache = ack.Req
	bump := ack.Epoch > sh.epoch
	if bump {
		sh.epoch = ack.Epoch
	}
	sc.mu.Unlock()
	if bump {
		sh.kern.Reset()
	}
}

// onShardReset is the root's eager post-action push.
func (sc *SubCoordinator) onShardReset(rst shardReset, _ wire.Meta) {
	sh := sc.shard
	sc.mu.Lock()
	sh.reqCache = rst.Req
	bump := rst.Epoch > sh.epoch
	if bump {
		sh.epoch = rst.Epoch
	}
	sc.mu.Unlock()
	if bump {
		sh.kern.Reset()
	}
}

// tryElect runs the deterministic election: the live sub with the
// lowest endpoint name wins and claims the root endpoint. A loser does
// nothing — it keeps counting misses and re-checks next period (if the
// presumptive winner is itself dead, the registry's failure detector
// removes it and the next-lowest sub takes over a period later).
func (sc *SubCoordinator) tryElect() {
	sh := sc.shard
	self := SubEndpointName(sc.cluster)
	low := self
	for _, m := range sh.reg.Members() {
		id := string(m.ID)
		if m.Cluster == "" && strings.HasPrefix(id, EndpointName+"/") && id < low {
			low = id
		}
	}
	if low != self {
		return
	}
	rootCfg := sh.cfg.Root
	rootCfg.Sharded = true
	if rootCfg.Period == 0 {
		rootCfg.Period = sc.period
	}
	if rootCfg.Thresholds == (Thresholds{}) {
		rootCfg.Thresholds = sh.cfg.Thresholds
	}
	c, err := Start(sh.f, sh.cfg.Prov, rootCfg)
	if err != nil {
		// The endpoint claim failed: the old root is still alive after
		// all, or a rival claimed it first. Either way a root exists —
		// stand down and wait for its acks.
		obs.Default.Counter("adapt/failover_lost").Inc()
		return
	}
	sc.mu.Lock()
	epoch, req := sh.epoch, sh.reqCache
	sh.promoted = c
	sh.missed = 0
	sh.pendingAck = false
	sc.mu.Unlock()
	// Seed the successor from this sub's cache; the other subs' caches
	// union-merge in with their next summaries. Blacklists are monotone,
	// so the merge never regresses.
	c.rootk.AdoptReqState(req)
	c.rootk.StartEpoch(epoch)
	obs.Default.Counter("adapt/failover_elected").Inc()
	c.mu.Lock()
	c.annotations = append(c.annotations, Annotation{
		Time:  time.Since(c.start).Seconds(),
		Label: fmt.Sprintf("root coordinator failover: %s promoted", self),
	})
	c.mu.Unlock()
}

// onSummary is the sharded root's ingestion path: store the summary,
// merge the riding requirements cache, and acknowledge — even a
// stale-epoch frame, because the ack's epoch is how a lagging or
// restarted sub catches up.
func (c *Coordinator) onSummary(sum coord.ClusterSummary, m wire.Meta) {
	c.rootk.Ingest(sum)
	c.mu.Lock()
	c.messages++
	c.mu.Unlock()
	wire.Send(c.wc, m.From, summaryAck{
		Cluster: sum.Cluster,
		Seq:     sum.Seq,
		Epoch:   c.rootk.ResetEpoch(),
		Req:     c.rootk.ReqState(),
	})
}

// shardedTick is the root's period in sharded mode: census the workers
// per cluster from the registry, run the O(clusters) root kernel, and
// push the post-action reset to every sub when the tick acted.
func (c *Coordinator) shardedTick() {
	clusters := make(map[ClusterID]bool)
	total := 0
	var subs []string
	for _, m := range c.reg.Members() {
		if m.Cluster != "" {
			clusters[m.Cluster] = true
			total++
		} else if strings.HasPrefix(string(m.ID), EndpointName+"/") {
			subs = append(subs, string(m.ID))
		}
	}
	live := make([]ClusterID, 0, len(clusters))
	for cl := range clusters {
		live = append(live, cl)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })

	before := c.rootk.ResetEpoch()
	rec := c.rootk.Tick(time.Since(c.start).Seconds(), live, total)
	c.mu.Lock()
	c.history = append(c.history, rec)
	c.mu.Unlock()
	if c.cfg.Observer != nil {
		c.cfg.Observer(rec)
	}
	if after := c.rootk.ResetEpoch(); after != before {
		rst := shardReset{Epoch: after, Req: c.rootk.ReqState()}
		sort.Strings(subs)
		for _, s := range subs {
			wire.Send(c.wc, s, rst)
		}
	}
}
