package coord

// The coordinator tree: the paper's §7 answer to the coordinator
// becoming a bottleneck is "a hierarchy of coordinators, one
// sub-coordinator per cluster which collects and processes statistics
// from its cluster, and one main coordinator which collects the
// information from the sub-coordinators." This file holds the whole
// Figure-2 policy, split at that seam.
//
// SubKernel is the per-cluster half: it owns report ingestion, the
// freshest-per-node rule and the two-period smoothing for its cluster,
// and condenses each period into one fixed-shape ClusterSummary frame.
// RootKernel is the main coordinator's half: its Tick consumes the
// latest summary per cluster — O(clusters) state and messages — and
// holds global authority over the blacklists, cluster eviction,
// provisioning, migration, yield and the post-action reset. The
// aggregate fields of ClusterSummary are chosen so the root
// reconstructs the global WAE, the cluster badness ranking and the
// pair-bandwidth culprit rule EXACTLY (up to floating-point
// association) from cluster partials: the ranking fields are a
// core.ClusterPartial, and core ranks them with the one implementation
// of the badness formulas and the culprit rule. Node eviction ranks
// the subs' proposed candidates, so with an uncapped proposal budget
// the ranking covers every reporting node.
//
// Kernel (coord.go) composes the two halves in one process; the tree
// drivers (internal/des, adapt) put a network between them and speak
// the protocol in tree.go across it.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// NodeSample is one eviction candidate inside a ClusterSummary: the
// smoothed per-node statistics the root needs to re-rank the candidate
// globally (the γ worst-cluster bonus and the speed normalisation are
// only known at the root).
type NodeSample struct {
	Node      core.NodeID
	Speed     float64
	Idle      float64
	IntraComm float64
	InterComm float64
}

// ReqState is a serialisable snapshot of the learned requirements. It
// rides on every summary (sub → root) and every ack (root → sub): the
// subs cache the root's latest state, and after a root failover the
// elected successor re-bootstraps by union-merging the caches arriving
// with the next round of summaries. Blacklists are monotone, so the
// union is always safe.
type ReqState struct {
	Nodes        []core.NodeID
	Clusters     []core.ClusterID
	MinBandwidth float64
}

// ClusterSummary is the compact per-period frame a sub-kernel emits:
// one cluster's smoothed statistics reduced to the aggregates the root
// decision needs, plus the locally-worst eviction candidates. Its size
// is O(1) + O(proposal cap) + O(peer clusters), independent of the
// cluster's node count, plus the echoed requirements state, which is
// O(blacklist).
type ClusterSummary struct {
	Cluster core.ClusterID
	// Seq is the sub-kernel's monotone summary counter (dedup).
	Seq uint64
	// Epoch is the root reset epoch the sub had adopted when it built
	// the summary. The root discards summaries from older epochs: they
	// aggregate reports that predate the root's last action, the stale
	// state the post-action reset throws away.
	Epoch uint64
	// Time is the sub's clock at summarize time (freshest-wins across
	// sub restarts, whose Seq starts over).
	Time float64

	Nodes int // live nodes in the cluster
	Stats int // smoothed reports aggregated below

	// WAE reconstruction: global max/minKnown speed come from the
	// per-cluster extrema; WorkSum/ZeroWork split measured from
	// unmeasured nodes so the root can apply the minKnown fallback.
	SpeedMax float64 // fastest measured speed (0 = none measured)
	SpeedMin float64 // slowest measured speed (0 = none measured)
	WorkSum  float64 // Σ speed·(1-overhead) over measured nodes
	ZeroWork float64 // Σ (1-overhead) over unmeasured nodes
	EffSum   float64 // Σ (1-overhead) over all nodes (unweighted ablation)

	// Cluster badness inputs (core.ClusterPartial's sums, with Stats,
	// SpeedMax, SpeedMin and Links).
	SpeedSum float64 // Σ speeds
	InterSum float64 // Σ inter-cluster overhead fractions

	// Learned-bandwidth fallback: achieved inter-cluster throughput the
	// cluster's nodes reported (mean = InterBWSum/InterBWCnt).
	InterBWSum float64
	InterBWCnt int

	// Links is the cluster's summed smoothed link samples per peer —
	// the pair-bandwidth estimation input. May be nil.
	Links map[core.ClusterID]core.LinkSample

	// Proposals are the cluster's locally-worst nodes (badness order,
	// worst first), capped at the sub's proposal cap. The root re-ranks
	// them globally before evicting.
	Proposals []NodeSample

	// Streaming-objective partials: the cluster's share of the period's
	// stream observation (core.StreamObs fields, summed at the root).
	// HasStream distinguishes "no streaming workload" from an all-zero
	// observation.
	HasStream        bool
	StreamArrived    int
	StreamCompleted  int
	StreamLatencySum float64
	StreamBacklog    int

	// Req is the sub's cached requirements state (see ReqState).
	Req ReqState
}

// partial is the summary's share of the ranking inputs.
func (s ClusterSummary) partial() core.ClusterPartial {
	return core.ClusterPartial{Cluster: s.Cluster, Stats: s.Stats, SpeedSum: s.SpeedSum,
		SpeedMax: s.SpeedMax, SpeedMin: s.SpeedMin, InterSum: s.InterSum, Links: s.Links}
}

// SubKernel is the per-cluster half of the sharded coordinator: report
// ingestion, smoothing and summary emission for one cluster. It is
// safe for concurrent use (the real runtime feeds Report from transport
// handlers while the sub-coordinator's ticker calls Summarize).
type SubKernel struct {
	cluster core.ClusterID
	cap     int
	weights core.BadnessWeights

	mu        sync.Mutex
	reports   map[core.NodeID]metrics.Report
	prevStats map[core.NodeID]core.NodeStats
	stream    *core.StreamObs // pending streaming partial for the next summary
	seq       uint64
}

// NewSubKernel builds the sub-kernel for one cluster. proposalCap
// bounds the eviction candidates per summary (0 = propose every node —
// exact ranking, right for small clusters). weights must match the
// root's badness weights so the local pre-ranking selects the same
// candidates the global ranking would.
func NewSubKernel(cluster core.ClusterID, proposalCap int, weights core.BadnessWeights) *SubKernel {
	return &SubKernel{
		cluster:   cluster,
		cap:       proposalCap,
		weights:   weights,
		reports:   make(map[core.NodeID]metrics.Report),
		prevStats: make(map[core.NodeID]core.NodeStats),
	}
}

// Report ingests one node's per-period statistics. Only the freshest
// report per node is kept (batched deliveries may reorder).
func (sk *SubKernel) Report(rep metrics.Report) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if cur, ok := sk.reports[rep.Node]; ok && rep.End < cur.End {
		return
	}
	sk.reports[rep.Node] = rep
}

// ObserveStream ingests the cluster's share of one period's streaming
// observation; the next Summarize ships it to the root as summary
// partials. Partials within a period merge by summation.
func (sk *SubKernel) ObserveStream(o core.StreamObs) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.stream == nil {
		cp := o
		sk.stream = &cp
		return
	}
	sk.stream.Merge(o)
}

// Forget drops a departed node's state immediately.
func (sk *SubKernel) Forget(id core.NodeID) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	delete(sk.reports, id)
	delete(sk.prevStats, id)
}

// Reset discards all stored reports and the smoothing window — the
// sub's share of the post-action reset, pushed down by the root after
// it acted.
func (sk *SubKernel) Reset() {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	sk.reports = make(map[core.NodeID]metrics.Report)
	sk.prevStats = make(map[core.NodeID]core.NodeStats)
}

// Summarize runs the sub's period over the cluster's live nodes: prune
// departed nodes, smooth over two periods, and reduce the cluster to
// one ClusterSummary. The caller stamps Epoch and Req before sending.
func (sk *SubKernel) Summarize(now float64, live []core.NodeID) ClusterSummary {
	liveSet := make(map[core.NodeID]bool, len(live))
	for _, id := range live {
		liveSet[id] = true
	}
	sum := sk.summarize(now, liveSet)
	sum.Nodes = len(live)
	return sum
}

// summarize is Summarize against any live set that covers the cluster
// (the composed Kernel passes the whole grid's); Nodes is left to the
// caller. Live nodes whose first period has not completed are simply
// missing, as in the paper ("the coordinator may miss data ... this
// causes small inaccuracies but does not influence the adaptation").
func (sk *SubKernel) summarize(now float64, liveSet map[core.NodeID]bool) ClusterSummary {
	sk.mu.Lock()
	defer sk.mu.Unlock()

	ids := make([]core.NodeID, 0, len(sk.reports))
	for id := range sk.reports {
		if liveSet[id] {
			ids = append(ids, id)
		} else {
			delete(sk.reports, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The sub decides on the average of two periods, smoothing out the
	// heavy-tailed per-period noise of a few large job transfers.
	stats := make([]core.NodeStats, 0, len(ids))
	next := make(map[core.NodeID]core.NodeStats, len(ids))
	for _, id := range ids {
		cur := sk.reports[id].Stats()
		next[id] = cur
		if prev, ok := sk.prevStats[id]; ok {
			cur = smooth(cur, prev)
		}
		stats = append(stats, cur)
	}
	sk.prevStats = next

	sk.seq++
	sum := ClusterSummary{
		Cluster: sk.cluster,
		Seq:     sk.seq,
		Time:    now,
	}
	part := core.ClusterPartial{Cluster: sk.cluster}
	for _, st := range stats {
		eff := 1 - st.Overhead()
		if st.Speed > 0 {
			sum.WorkSum += st.Speed * eff
		} else {
			sum.ZeroWork += eff
		}
		sum.EffSum += eff
		part.Add(st)
	}
	sum.Stats, sum.SpeedSum, sum.SpeedMax, sum.SpeedMin = part.Stats, part.SpeedSum, part.SpeedMax, part.SpeedMin
	sum.InterSum, sum.Links = part.InterSum, part.Links
	// Achieved-throughput fallback for the learned bandwidth bound,
	// summed in sorted node order for determinism.
	for _, id := range ids {
		if bw := sk.reports[id].InterBandwidth; bw > 0 {
			sum.InterBWSum += bw
			sum.InterBWCnt++
		}
	}
	if sk.stream != nil {
		sum.HasStream = true
		sum.StreamArrived = sk.stream.Arrived
		sum.StreamCompleted = sk.stream.Completed
		sum.StreamLatencySum = sk.stream.LatencySum
		sum.StreamBacklog = sk.stream.Backlog
		sk.stream = nil
	}
	sum.Proposals = sk.propose(stats)
	return sum
}

// smooth averages the overhead fractions of two consecutive periods
// and merges their link samples: per-period overheads are heavy-tailed
// (one big cross-cluster job transfer can dominate a node's period),
// and decisions as drastic as evacuating a cluster should not ride on
// one period's tail events. Speeds are always the latest benchmark
// measurement.
func smooth(cur, prev core.NodeStats) core.NodeStats {
	cur.Idle = (cur.Idle + prev.Idle) / 2
	cur.IntraComm = (cur.IntraComm + prev.IntraComm) / 2
	cur.InterComm = (cur.InterComm + prev.InterComm) / 2
	merged := make(map[core.ClusterID]core.LinkSample, len(cur.Links)+len(prev.Links))
	for _, links := range []map[core.ClusterID]core.LinkSample{cur.Links, prev.Links} {
		for peer, l := range links {
			merged[peer] = merged[peer].Plus(l)
		}
	}
	if len(merged) > 0 {
		cur.Links = merged
	}
	return cur
}

// propose selects the eviction candidates: every reporting node when
// uncapped (sorted-node order — the root re-sorts anyway), else the
// locally-worst cap nodes by core.RankNodes, which reduces the stats to
// the partial this summary carries and ranks with the root's formulas.
// Local badness uses cluster-local relative speeds; the ordering may
// differ slightly from the global one, which is the documented
// approximation of a capped summary (the cap exists precisely so frames
// stay O(1)).
func (sk *SubKernel) propose(stats []core.NodeStats) []NodeSample {
	if len(stats) == 0 {
		return nil
	}
	picked := stats
	if sk.cap > 0 && len(stats) > sk.cap {
		byNode := make(map[core.NodeID]core.NodeStats, len(stats))
		for _, st := range stats {
			byNode[st.Node] = st
		}
		picked = make([]core.NodeStats, 0, sk.cap)
		for _, nb := range core.RankNodes(stats, sk.weights)[:sk.cap] {
			picked = append(picked, byNode[nb.Node])
		}
	}
	out := make([]NodeSample, 0, len(picked))
	for _, st := range picked {
		out = append(out, NodeSample{Node: st.Node, Speed: st.Speed, Idle: st.Idle, IntraComm: st.IntraComm, InterComm: st.InterComm})
	}
	return out
}

// RootActuator is the optional Actuator extension the root kernel uses
// for whole-cluster eviction: the runtime enumerates the cluster's live
// nodes (a root fed over the network holds no per-node state and its
// capped proposals do not cover the cluster). Without it, the root
// evicts the cluster's proposed nodes.
type RootActuator interface {
	ClusterNodes(c core.ClusterID) []core.NodeID
}

// rootInstruments caches the obs instruments Tick and Ingest touch,
// resolved once at construction so neither path takes the registry
// lock. The health series carry the objective's scalar (WAE for batch,
// target/latency for streams).
type rootInstruments struct {
	ticks        *obs.Counter
	resets       *obs.Counter
	ingested     *obs.Counter
	staleEpoch   *obs.Counter
	health       *obs.Gauge
	liveNodes    *obs.Gauge
	reported     *obs.Gauge
	clusters     *obs.Gauge
	periodHealth *obs.Histogram
}

func newRootInstruments() rootInstruments {
	return rootInstruments{
		ticks:        obs.Default.Counter("coord/ticks"),
		resets:       obs.Default.Counter("coord/post_action_resets"),
		ingested:     obs.Default.Counter("coord/summaries_ingested"),
		staleEpoch:   obs.Default.Counter("coord/summaries_stale_epoch"),
		health:       obs.Default.Gauge("coord/health"),
		liveNodes:    obs.Default.Gauge("coord/live_nodes"),
		reported:     obs.Default.Gauge("coord/reported_nodes"),
		clusters:     obs.Default.Gauge("coord/summary_clusters"),
		periodHealth: obs.Default.Histogram("coord/period_health", obs.HealthBuckets),
	}
}

// RootKernel is the main coordinator: it consumes ClusterSummary frames
// and runs the Figure-2 loop at cluster granularity — O(clusters) work
// per Tick regardless of node count — with global authority over
// requirements learning, blacklists, cluster eviction, provisioning,
// opportunistic migration and fair-share yield. Safe for concurrent
// use.
type RootKernel struct {
	cfg     Config
	eng     *core.Engine   // batch engine (nil for non-batch objectives)
	obj     core.Objective // nil = monitor-only
	weights core.BadnessWeights
	reqs    *core.Requirements
	act     Actuator
	// roster enumerates a cluster's live nodes for whole-cluster
	// eviction; nil = evict the cluster's proposed nodes.
	roster func(core.ClusterID) []core.NodeID

	mu         sync.Mutex
	sums       map[core.ClusterID]ClusterSummary
	stream     *core.StreamObs // pending observation no cluster summary carries
	protected  map[core.NodeID]bool
	resetEpoch uint64

	ins rootInstruments
}

// NewRoot builds a RootKernel. cfg.Engine is validated when present.
func NewRoot(cfg Config, act Actuator) (*RootKernel, error) {
	if act == nil {
		return nil, fmt.Errorf("coord: nil actuator")
	}
	rk := &RootKernel{
		cfg:       cfg,
		weights:   cfg.Weights(),
		reqs:      core.NewRequirements(),
		act:       act,
		sums:      make(map[core.ClusterID]ClusterSummary),
		protected: make(map[core.NodeID]bool),
		ins:       newRootInstruments(),
	}
	if ra, ok := act.(RootActuator); ok {
		rk.roster = ra.ClusterNodes
	}
	if cfg.Objective == nil && cfg.Engine != nil {
		obj, err := core.NewBatchWAE(*cfg.Engine)
		if err != nil {
			return nil, err
		}
		cfg.Objective = obj
	}
	rk.obj = cfg.Objective
	if b, ok := cfg.Objective.(*core.BatchWAE); ok {
		// The batch objective keeps its engine reachable: the
		// cluster-eviction rules need the culprit thresholds and
		// ShrinkCount.
		rk.eng = b.Engine()
	}
	return rk, nil
}

// Requirements exposes what the run has taught the root.
func (rk *RootKernel) Requirements() *core.Requirements { return rk.reqs }

// epoch returns the current post-action reset epoch; a bump across a
// Tick means the root acted and every sub must reset.
func (rk *RootKernel) epoch() uint64 {
	rk.mu.Lock()
	defer rk.mu.Unlock()
	return rk.resetEpoch
}

// ReqState snapshots the learned requirements for acks and failover.
// The lists are core.Requirements' shared snapshots: built when a fact
// was added, not per call, and never written again, so every ack and
// reset between two facts carries the same two slices.
func (rk *RootKernel) ReqState() ReqState {
	return ReqState{
		Nodes:        rk.reqs.BlacklistedNodes(),
		Clusters:     rk.reqs.BlacklistedClusters(),
		MinBandwidth: rk.reqs.MinBandwidth(),
	}
}

// adoptReqState union-merges a requirements snapshot — how an elected
// root re-bootstraps from its own cache and the caches riding on the
// next round of summaries. Blacklists are monotone so the union never
// regresses; under DisableBlacklist only the bandwidth bound merges.
// An empty list (every flat-kernel summary) and a list equal to the
// root's own snapshot teach it nothing and are skipped whole: the
// latter is every echo a sub sends back in steady state, the same
// strings the root handed out, so the compare is mostly pointer checks.
func (rk *RootKernel) adoptReqState(st ReqState) {
	if !rk.cfg.DisableBlacklist {
		if len(st.Nodes) > 0 && !slices.Equal(st.Nodes, rk.reqs.BlacklistedNodes()) {
			for _, n := range st.Nodes {
				rk.reqs.BlacklistNode(n)
			}
		}
		if len(st.Clusters) > 0 && !slices.Equal(st.Clusters, rk.reqs.BlacklistedClusters()) {
			for _, c := range st.Clusters {
				rk.reqs.BlacklistCluster(c)
			}
		}
	}
	if st.MinBandwidth > 0 {
		rk.reqs.LearnMinBandwidth(st.MinBandwidth)
	}
}

// SetProtected replaces the protected set.
func (rk *RootKernel) SetProtected(ids ...core.NodeID) {
	rk.mu.Lock()
	defer rk.mu.Unlock()
	rk.protected = make(map[core.NodeID]bool, len(ids))
	for _, id := range ids {
		rk.protected[id] = true
	}
}

func (rk *RootKernel) veto(node core.NodeID, cluster core.ClusterID) bool {
	return rk.reqs.NodeBlacklisted(node, cluster)
}

// observeStream merges a streaming observation that belongs to no
// cluster's summary (the composed Kernel's global ObserveStream). The
// next Tick consumes it together with the summaries' partials, whether
// or not any node reported.
func (rk *RootKernel) observeStream(o core.StreamObs) {
	rk.mu.Lock()
	defer rk.mu.Unlock()
	if rk.stream == nil {
		rk.stream = &core.StreamObs{}
	}
	rk.stream.Merge(o)
}

// Ingest stores a cluster's summary (latest per cluster by Time) and
// union-merges the requirements cache riding on it. Summaries from
// before the root's last action (older Epoch) are discarded: they
// aggregate exactly the stale pre-action reports the post-action reset
// deletes. A summary from a NEWER epoch raises the
// root's own epoch — that is how an elected successor converges with
// subs that saw a reset push the successor missed. Returns whether the
// summary was accepted.
func (rk *RootKernel) Ingest(sum ClusterSummary) bool {
	rk.adoptReqState(sum.Req)
	rk.mu.Lock()
	defer rk.mu.Unlock()
	if sum.Epoch > rk.resetEpoch {
		rk.resetEpoch = sum.Epoch
	}
	if sum.Epoch < rk.resetEpoch {
		rk.ins.staleEpoch.Inc()
		return false
	}
	if cur, ok := rk.sums[sum.Cluster]; ok && sum.Time < cur.Time {
		return false
	}
	rk.sums[sum.Cluster] = sum
	rk.ins.ingested.Inc()
	return true
}

// Tick runs one root pass of the Figure-2 loop over the latest cluster
// summaries. liveClusters is the runtime's census of clusters that
// currently host participants (summaries of vanished clusters are
// pruned); totalNodes is the live participant count. The per-tick cost
// is O(clusters · proposal cap) — independent of the node count, which
// is the point of the shard split.
func (rk *RootKernel) Tick(now float64, liveClusters []core.ClusterID, totalNodes int) PeriodRecord {
	rk.mu.Lock()
	defer rk.mu.Unlock()

	liveSet := make(map[core.ClusterID]bool, len(liveClusters))
	for _, c := range liveClusters {
		liveSet[c] = true
	}
	for c := range rk.sums {
		if !liveSet[c] {
			delete(rk.sums, c)
		}
	}
	order := make([]core.ClusterID, 0, len(rk.sums))
	for c := range rk.sums {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// The ranking inputs in cluster order, the report count and the
	// global speed extrema.
	parts := make([]core.ClusterPartial, len(order))
	n := 0
	for i, c := range order {
		parts[i] = rk.sums[c].partial()
		n += parts[i].Stats
	}
	maxSp, minKnown := core.SpeedRange(parts)
	// WAE = [Σ WorkSum/max + (minKnown/max)·Σ ZeroWork] / n —
	// core.WeightedAverageEfficiency reassociated over cluster partials.
	var wae, eff float64
	if n > 0 {
		var sumW, sumE float64
		for _, c := range order {
			s := rk.sums[c]
			sumE += s.EffSum
			if maxSp == 0 {
				sumW += s.ZeroWork // nobody measured: rel = 1 everywhere
			} else {
				sumW += s.WorkSum/maxSp + (minKnown/maxSp)*s.ZeroWork
			}
		}
		wae = sumW / float64(n)
		eff = sumE / float64(n)
	}

	// Sum the clusters' streaming partials into the period's global
	// observation, consuming them: an observation feeds exactly one
	// tick, whether or not the root decides on it.
	streamObs := rk.stream
	rk.stream = nil
	for _, c := range order {
		s := rk.sums[c]
		if !s.HasStream {
			continue
		}
		if streamObs == nil {
			streamObs = &core.StreamObs{}
		}
		streamObs.Merge(core.StreamObs{
			Arrived:    s.StreamArrived,
			Completed:  s.StreamCompleted,
			LatencySum: s.StreamLatencySum,
			Backlog:    s.StreamBacklog,
		})
		s.HasStream = false
		s.StreamArrived, s.StreamCompleted, s.StreamBacklog = 0, 0, 0
		s.StreamLatencySum = 0
		rk.sums[c] = s
	}

	dWAE := wae
	if rk.eng != nil && rk.eng.Config().UnweightedEfficiency {
		dWAE = eff
	}
	health := dWAE
	if rk.obj != nil {
		health = rk.obj.Health(core.PeriodObs{Efficiency: dWAE, Stream: streamObs})
	}

	rec := PeriodRecord{Time: now, WAE: health, Nodes: totalNodes, Stats: n}
	rk.ins.ticks.Inc()
	rk.ins.liveNodes.Set(float64(totalNodes))
	rk.ins.reported.Set(float64(n))
	rk.ins.clusters.Set(float64(len(order)))
	if n > 0 {
		rk.ins.health.Set(rec.WAE)
		rk.ins.periodHealth.Observe(rec.WAE)
	}
	defer func() {
		if rec.Action != "" && rec.Action != "none" {
			obs.Default.Counter("coord/decision/" + rec.Action).Inc()
		}
		if rec.Added > 0 {
			obs.Default.Counter("coord/nodes_added").Add(uint64(rec.Added))
		}
		if rec.Removed > 0 {
			obs.Default.Counter("coord/nodes_removed").Add(uint64(rec.Removed))
		}
	}()
	if rk.obj == nil || rk.cfg.MonitorOnly {
		if n > 0 {
			rec.Detail = fmt.Sprintf("monitor only: WAE %.3f on %d nodes", rec.WAE, n)
		}
		return rec
	}
	if n == 0 {
		if totalNodes == 0 {
			rec.Action = "add"
			rec.Added = rk.act.Provision(1, rk.reqs.MinBandwidth(), rk.veto)
			rec.Detail = "no live nodes; bootstrap by requesting one"
			if rec.Added > 0 {
				rk.act.Annotate("bootstrap: requested a replacement node")
			}
		}
		return rec
	}

	// Fair-share yield outranks the objective band: when the pool
	// demands capacity back for starved jobs, holding on to surplus
	// nodes would starve them for as long as this job runs. Yield the
	// worst nodes by badness and decide afresh on the shrunken
	// configuration next period.
	if rk.cfg.Pressure != nil {
		if p := rk.cfg.Pressure(); p > 0 {
			ranked := rk.rank(parts)
			var victims []core.NodeID
			for _, nb := range ranked {
				if len(victims) >= p {
					break
				}
				if !rk.protected[nb.Node] {
					victims = append(victims, nb.Node)
				}
			}
			if removed := rk.evict(victims, "fair-share yield", false); removed > 0 {
				rec.Action = "yield"
				rec.Removed = removed
				rec.Detail = fmt.Sprintf("pool reclaimed %d of %d surplus nodes", removed, p)
				obs.Default.Counter("coord/yielded").Add(uint64(removed))
				rk.act.Annotate(fmt.Sprintf("yielded %d nodes to the shared pool", removed))
				rk.resetLocked()
				return rec
			}
		}
	}

	acted := false
	v, cnt := rk.obj.Judge(health, n)
	switch v {
	case core.VerdictGrow:
		rec.Action = "add"
		rec.Detail = rk.obj.Explain(core.VerdictGrow, health, n, cnt)
		rec.Added = rk.act.Provision(cnt, rk.reqs.MinBandwidth(), rk.veto)
		if rec.Added > 0 {
			acted = true
			rk.act.Annotate(fmt.Sprintf("adding %d nodes (WAE %.2f)", rec.Added, health))
		}
	case core.VerdictShrink, core.VerdictShed:
		acted = rk.shrink(&rec, v, parts, health, n, cnt)
	default:
		rec.Action = "none"
		rec.Detail = rk.obj.Explain(core.VerdictHold, health, n, 0)
		if rk.cfg.Opportunistic {
			if added, removed := rk.tryOpportunistic(parts, minKnown); added > 0 {
				rec.Action = "opportunistic-migrate"
				rec.Added = added
				rec.Removed = removed
				acted = true
				rk.act.Annotate(fmt.Sprintf("opportunistic migration: +%d faster nodes, -%d slow",
					added, removed))
			}
		}
	}
	if acted {
		rk.resetLocked()
	}
	return rec
}

// resetLocked is the post-action reset: the stored summaries describe
// the pre-action configuration, and deciding on them again would chain
// actions off stale data (e.g. evicting a second cluster for overhead
// the first one caused). The epoch bump travels to the subs (via the
// driver) so they discard their pre-action reports too — including the
// smoothing window, whose previous period is just as stale — and
// summaries already in flight from the old epoch are rejected.
func (rk *RootKernel) resetLocked() {
	rk.sums = make(map[core.ClusterID]ClusterSummary)
	rk.resetEpoch++
	rk.ins.resets.Inc()
}

// shrink is the objective's shrink (or shed) verdict: for objectives
// with the ClusterEviction trait, bandwidth-culprit cluster eviction
// first, then the inter-comm dominance fallback; then worst-node
// removal. This is the paper's Figure-2 rule order, written only here
// and computed from cluster partials; TestDecisionGolden pins what it
// decides. cnt is the objective's node-removal magnitude (0 = floor
// reached). A VerdictShed blacklists its victims regardless of the
// objective's traits.
func (rk *RootKernel) shrink(rec *PeriodRecord, v core.Verdict, parts []core.ClusterPartial, health float64, n, cnt int) bool {
	tr := rk.obj.Traits()
	if tr.ClusterEviction && rk.eng != nil {
		ecfg := rk.eng.Config()

		// Primary rule: measured pair-bandwidth culprit.
		if ecfg.ClusterDropBWRatio > 0 {
			if culprit, bw, ref, ok := core.BandwidthCulprit(parts, core.MinPairBytes); ok && ref > 0 && bw <= ref*ecfg.ClusterDropBWRatio {
				if s, here := rk.sums[culprit]; here && s.Stats > 0 && n-s.Stats >= ecfg.MinNodes {
					rec.Action = "remove-cluster"
					rec.Detail = fmt.Sprintf("cluster %s best-pair bandwidth %.0f B/s vs %.0f B/s elsewhere: uplink insufficient, evacuating cluster",
						culprit, bw, ref)
					rec.Removed = rk.evictCluster(parts, culprit, bw, health, n)
					return rec.Removed > 0
				}
			}
		}

		// Fallback rule: exceptionally high inter-cluster overhead that
		// clearly dominates the runner-up.
		clusters := core.RankClusters(parts, rk.weights)
		worst, second := -1, -1
		for i := range clusters {
			switch {
			case worst < 0 || clusters[i].InterComm > clusters[worst].InterComm:
				second = worst
				worst = i
			case second < 0 || clusters[i].InterComm > clusters[second].InterComm:
				second = i
			}
		}
		dominates := len(clusters) > 1 && worst >= 0 &&
			clusters[worst].InterComm > ecfg.ClusterDropInterComm
		if dominates && second >= 0 {
			dominates = clusters[worst].InterComm >
				clusters[second].InterComm*core.ClusterDropRelative
		}
		if dominates {
			c := clusters[worst]
			if s, ok := rk.sums[c.Cluster]; ok && n-s.Stats >= ecfg.MinNodes {
				rec.Action = "remove-cluster"
				rec.Detail = fmt.Sprintf("cluster %s inter-cluster overhead %.0f%% > %.0f%%: uplink bandwidth insufficient, evacuating cluster",
					c.Cluster, c.InterComm*100, ecfg.ClusterDropInterComm*100)
				rec.Removed = rk.evictCluster(parts, c.Cluster, 0, health, n)
				return rec.Removed > 0
			}
		}
	}

	if cnt == 0 {
		rec.Action = "none"
		rec.Detail = rk.obj.Explain(v, health, n, 0)
		return false
	}
	ranked := rk.rank(parts)
	if len(ranked) > cnt {
		ranked = ranked[:cnt]
	}
	victims := make([]core.NodeID, 0, len(ranked))
	for _, nb := range ranked {
		victims = append(victims, nb.Node)
	}
	rec.Action = "remove-nodes"
	rec.Detail = rk.obj.Explain(v, health, n, cnt)
	rec.Removed = rk.evict(victims, "badness", tr.BlacklistVictims || v == core.VerdictShed)
	if rec.Removed > 0 {
		rk.act.Annotate(fmt.Sprintf("removed %d worst nodes (WAE %.2f)", rec.Removed, health))
		return true
	}
	return false
}

// evictCluster evacuates a whole cluster: learn the bandwidth bound
// before the summaries disappear, evict the cluster's live nodes (via
// the RootActuator enumeration when available, else the proposals),
// blacklist the cluster, and fall back to worst-node eviction when the
// cluster holds only protected nodes, which cannot leave, so the
// coordinator does not spin on the same decision.
func (rk *RootKernel) evictCluster(parts []core.ClusterPartial, c core.ClusterID, measuredBW, wae float64, n int) int {
	rk.learnClusterBandwidth(c, measuredBW)
	var victims []core.NodeID
	if rk.roster != nil {
		victims = rk.roster(c)
	} else {
		for _, p := range rk.sums[c].Proposals {
			victims = append(victims, p.Node)
		}
	}
	removed := rk.evict(victims, "cluster uplink saturated", true)
	if removed > 0 {
		if !rk.cfg.DisableBlacklist {
			rk.reqs.BlacklistCluster(c)
		}
		rk.act.Annotate(fmt.Sprintf("removed badly connected cluster %s (%d nodes)", c, removed))
		return removed
	}
	// Only protected nodes there: evict the worst ordinary nodes
	// instead, skipping the offending cluster.
	count := rk.eng.ShrinkCount(n, wae)
	ranked := rk.rank(parts)
	var fallback []core.NodeID
	for _, nb := range ranked {
		if len(fallback) >= count {
			break
		}
		if nb.Cluster != c {
			fallback = append(fallback, nb.Node)
		}
	}
	removed = rk.evict(fallback, "badness (cluster fallback)", true)
	if removed > 0 {
		rk.act.Annotate(fmt.Sprintf("removed %d worst nodes (WAE %.2f)", removed, wae))
	}
	return removed
}

// learnClusterBandwidth tightens the minimum-bandwidth requirement
// when a cluster is evacuated for insufficient uplink bandwidth. The
// bound must be a LINK CAPACITY (that is what the scheduler can compare
// against), so the sources are tried capacity-first: the actuator's
// NWS-style observed link capacity, then the mean per-pair achieved
// share the cluster's nodes reported (which divides the capacity among
// concurrent flows), then the culprit rule's best measured pair
// bandwidth.
func (rk *RootKernel) learnClusterBandwidth(c core.ClusterID, measured float64) {
	bw := rk.act.ObservedBandwidth(c)
	if bw <= 0 {
		if s, ok := rk.sums[c]; ok && s.InterBWCnt > 0 {
			bw = s.InterBWSum / float64(s.InterBWCnt)
		}
	}
	if bw <= 0 {
		bw = measured
	}
	if bw > 0 {
		rk.reqs.LearnMinBandwidth(bw)
	}
}

// rank orders every cluster's proposed candidates worst-first with
// core.RankCandidates over all clusters' partials: the global speed
// normalisation, the unmeasured-node fallback and the γ bonus for the
// worst cluster are only known here.
func (rk *RootKernel) rank(parts []core.ClusterPartial) []core.NodeBadness {
	var cands []core.Candidate
	for _, p := range parts {
		for _, s := range rk.sums[p.Cluster].Proposals {
			cands = append(cands, core.Candidate{Node: s.Node, Cluster: p.Cluster, Speed: s.Speed, InterComm: s.InterComm})
		}
	}
	return core.RankCandidates(parts, cands, rk.weights)
}

// evict filters out protected nodes, asks the actuator to remove the
// rest, and — when blacklist is set — blacklists exactly the nodes that
// actually left so the scheduler does not hand them straight back. A
// fair-share yield evicts without blacklisting: the yielded nodes are
// healthy and may return once the pool decompresses.
func (rk *RootKernel) evict(victims []core.NodeID, reason string, blacklist bool) int {
	want := make([]core.NodeID, 0, len(victims))
	for _, id := range victims {
		if !rk.protected[id] {
			want = append(want, id)
		}
	}
	if len(want) == 0 {
		return 0
	}
	evicted := rk.act.Evict(want, reason)
	for _, id := range evicted {
		if blacklist && !rk.cfg.DisableBlacklist {
			rk.reqs.BlacklistNode(id)
		}
	}
	return len(evicted)
}

// tryOpportunistic implements opportunistic migration: when clearly
// faster processors are idle in the grid, migrate to them even though
// health is inside the band — add replacements from the fastest site
// and evict the slow nodes they displace. The paper's scenario 5 is the
// motivating case: after the badly connected cluster left, ~3x slower
// nodes kept the WAE legal and nothing improved further without this.
// The slowest measured speed is known globally (SpeedMin partials); the
// migration victim set comes from the proposals, which is exact when
// the proposal cap covers the cluster and a documented approximation
// otherwise.
func (rk *RootKernel) tryOpportunistic(parts []core.ClusterPartial, minKnown float64) (added, removed int) {
	mig, ok := rk.act.(Migrator)
	if !ok {
		return 0, 0
	}
	if minKnown == 0 {
		return 0, 0 // no measured speeds yet
	}
	cluster, speed, free := mig.BestAvailable(rk.veto)
	if cluster == "" || speed < minKnown*opportunisticFactor {
		return 0, 0
	}
	type cand struct {
		node    core.NodeID
		cluster core.ClusterID
		speed   float64
	}
	var slow []cand
	for _, part := range parts {
		for _, p := range rk.sums[part.Cluster].Proposals {
			if p.Speed > 0 && p.Speed*opportunisticFactor <= speed && !rk.protected[p.Node] {
				slow = append(slow, cand{p.Node, part.Cluster, p.Speed})
			}
		}
	}
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].speed != slow[j].speed {
			return slow[i].speed < slow[j].speed
		}
		return slow[i].node < slow[j].node
	})
	want := len(slow)
	if want > free {
		want = free
	}
	if want == 0 {
		return 0, 0
	}
	added = mig.ProvisionFrom(cluster, want, rk.reqs.MinBandwidth(), rk.veto)
	victims := make([]core.NodeID, 0, added)
	for i := 0; i < added && i < len(slow); i++ {
		victims = append(victims, slow[i].node)
	}
	removed = rk.evict(victims, "opportunistic migration", true)
	return added, removed
}
