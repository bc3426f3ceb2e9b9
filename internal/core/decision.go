package core

import (
	"fmt"
	"math"
)

// Config holds the adaptation thresholds and heuristic constants.
type Config struct {
	// EMin is the lower weighted-average-efficiency threshold. Below it
	// the coordinator removes the worst nodes: such low efficiency either
	// indicates a performance problem (overloaded link or processors), in
	// which case removal helps, or simply too many processors, in which
	// case removal at least does no harm. Paper value: 0.30.
	EMin float64
	// EMax is the upper threshold, derived from Eager, Zahorjan &
	// Lazowska: at the optimal processor count efficiency is at least
	// 0.5, so adding processors while efficiency <= 0.5 only lowers
	// utilisation without significant gain. Paper value: 0.50.
	EMax float64

	// Weights are the α/β/γ badness coefficients.
	Weights BadnessWeights

	// ClusterDropInterComm is the "exceptionally high" inter-cluster
	// overhead fraction above which the whole cluster is removed at once
	// (its uplink bandwidth is concluded to be insufficient) instead of
	// ranking and removing individual nodes. It applies only to the
	// overhead-based fallback (with ClusterDropRelative); when the
	// statistics carry per-pair transfer samples the bandwidth rule
	// below takes precedence.
	ClusterDropInterComm float64

	// ClusterDropBWRatio drives the primary, measurement-based rule:
	// when per-pair bandwidth estimates exist, the cluster whose BEST
	// pair bandwidth is below this fraction of the healthiest pair in
	// the grid is the congestion culprit and is evacuated. The paper
	// estimates exactly these pair bandwidths from data transfer times.
	ClusterDropBWRatio float64

	// MinNodes is the floor below which the engine never shrinks the
	// computation (at least 1).
	MinNodes int

	// UnweightedEfficiency makes the engine use the classic
	// (speed-blind) parallel efficiency instead of the weighted average
	// efficiency — the ablation showing why the paper's weighting
	// matters on heterogeneous resources.
	UnweightedEfficiency bool
}

// The decision rules' constants that no caller tunes (DESIGN.md §1).
const (
	// ClusterDropRelative: the overhead fallback also requires the
	// offending cluster's inter-cluster overhead to exceed the
	// runner-up's by this factor. A saturated uplink also elevates its
	// neighbours' overhead (their steals cross the same link), and
	// "exceptionally high" must single out the culprit, not the
	// collateral.
	ClusterDropRelative = 1.5
	// MinPairBytes is the evidence floor: pair-bandwidth estimates built
	// on fewer transferred bytes are ignored as noise.
	MinPairBytes = 256 << 10
	// maxGrowFactor caps a single grow step at maxGrowFactor × the
	// current node count, so one optimistic period cannot over-allocate.
	maxGrowFactor = 1.0
)

// DefaultConfig returns the paper's thresholds with the documented
// heuristic constants.
func DefaultConfig() Config {
	return Config{
		EMin:                 0.30,
		EMax:                 0.50,
		Weights:              DefaultBadnessWeights(),
		ClusterDropInterComm: 0.25,
		ClusterDropBWRatio:   0.1,
		MinNodes:             1,
	}
}

// Validate checks threshold sanity.
func (c Config) Validate() error {
	if !(c.EMin > 0 && c.EMin < c.EMax && c.EMax <= 1) {
		return fmt.Errorf("core: need 0 < EMin < EMax <= 1, got EMin=%v EMax=%v", c.EMin, c.EMax)
	}
	if c.ClusterDropInterComm <= 0 || c.ClusterDropInterComm > 1 {
		return fmt.Errorf("core: ClusterDropInterComm %v out of (0,1]", c.ClusterDropInterComm)
	}
	if c.MinNodes < 1 {
		return fmt.Errorf("core: MinNodes %d < 1", c.MinNodes)
	}
	return nil
}

// Action is the kind of adaptation step the engine decided on.
type Action int

const (
	// ActionNone: WAE is between the thresholds; leave the resource set
	// alone. (This is also where the paper notes opportunistic migration
	// would help but is not supported by current grid schedulers.)
	ActionNone Action = iota
	// ActionAdd: WAE exceeded EMax; request AddCount extra nodes.
	ActionAdd
	// ActionRemoveNodes: WAE fell below EMin; remove the listed worst
	// nodes.
	ActionRemoveNodes
	// ActionRemoveCluster: one cluster's inter-cluster overhead is
	// exceptionally high; evacuate that entire cluster.
	ActionRemoveCluster
)

// String implements fmt.Stringer for logging and traces.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionAdd:
		return "add"
	case ActionRemoveNodes:
		return "remove-nodes"
	case ActionRemoveCluster:
		return "remove-cluster"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Decision is the engine's output for one monitoring period.
type Decision struct {
	Action Action
	// WAE is the weighted average efficiency the decision is based on.
	WAE float64
	// AddCount is how many nodes to request (ActionAdd).
	AddCount int
	// RemoveNodes lists the nodes to evict, worst first
	// (ActionRemoveNodes).
	RemoveNodes []NodeID
	// RemoveCluster is the cluster to evacuate (ActionRemoveCluster).
	RemoveCluster ClusterID
	// ClusterInterComm is the offending cluster's inter-cluster overhead
	// (ActionRemoveCluster); the coordinator uses it together with
	// bandwidth estimates to tighten the learned minimum-bandwidth
	// requirement.
	ClusterInterComm float64
	// MeasuredBandwidth is the culprit's best measured pair bandwidth
	// (bytes/s) when the bandwidth rule fired; 0 otherwise. It seeds
	// the learned minimum-bandwidth requirement directly.
	MeasuredBandwidth float64
	// Reason is a human-readable explanation for traces.
	Reason string
}

// Engine turns per-period statistics into adaptation decisions. It is
// purely functional over its configuration; learned requirements live in
// Requirements (see requirements.go) which the coordinator owns.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and returns an Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// GrowCount decides how many nodes to request when WAE=wae exceeded
// EMax on n nodes. Following the paper ("the higher the efficiency, the
// more processors are requested") the engine aims at the middle of the
// [EMin,EMax] band: assuming total useful throughput n·wae stays roughly
// constant while the overhead per node grows with n, the node count that
// would land at target efficiency t is n·wae/t. The step is capped by
// maxGrowFactor and is at least 1.
func (e *Engine) GrowCount(n int, wae float64) int {
	if n <= 0 {
		return 1
	}
	target := (e.cfg.EMin + e.cfg.EMax) / 2
	ideal := float64(n) * wae / target
	add := int(math.Round(ideal)) - n
	if add < 1 {
		add = 1
	}
	if cap := int(math.Ceil(float64(n) * maxGrowFactor)); add > cap {
		add = cap
	}
	return add
}

// ShrinkCount decides how many nodes to remove when WAE=wae fell below
// EMin on n nodes ("the lower the efficiency, the more nodes are
// removed"), symmetric to GrowCount, bounded so at least MinNodes
// remain and at least one node goes.
func (e *Engine) ShrinkCount(n int, wae float64) int {
	if n <= e.cfg.MinNodes {
		return 0
	}
	target := (e.cfg.EMin + e.cfg.EMax) / 2
	ideal := float64(n) * wae / target
	remove := n - int(math.Round(ideal))
	if remove < 1 {
		remove = 1
	}
	if remove > n-e.cfg.MinNodes {
		remove = n - e.cfg.MinNodes
	}
	return remove
}

// Decide implements the paper's adaptation strategy (Figure 2):
//
//	compute WAE;
//	if WAE > EMax: request nodes;
//	if WAE < EMin: if some cluster's inter-cluster overhead is
//	    exceptionally high, remove that whole cluster; otherwise rank
//	    nodes by badness and remove the worst ones;
//	otherwise: no action.
//
// The stats slice must contain one entry per live node for the period.
//
// Decide is the strategy in its textbook form, over one flat slice of
// node statistics, and no runtime calls it: internal/coord evaluates
// the same rules in the same order over cluster partials. It stays as
// the reference the decision goldens pin and the coordinator kernel is
// differentially tested against.
func (e *Engine) Decide(stats []NodeStats) Decision {
	var wae float64
	if e.cfg.UnweightedEfficiency {
		wae = Efficiency(stats)
	} else {
		wae = WeightedAverageEfficiency(stats)
	}
	n := len(stats)
	if n == 0 {
		return Decision{Action: ActionAdd, WAE: 0, AddCount: 1,
			Reason: "no live nodes; bootstrap by requesting one"}
	}

	switch {
	case wae > e.cfg.EMax:
		add := e.GrowCount(n, wae)
		return Decision{
			Action:   ActionAdd,
			WAE:      wae,
			AddCount: add,
			Reason: fmt.Sprintf("WAE %.3f > EMax %.2f on %d nodes: request %d more",
				wae, e.cfg.EMax, n, add),
		}

	case wae < e.cfg.EMin:
		// Bandwidth emergency: a single cluster saturating its uplink is
		// removed wholesale, rather than node by node. The relative
		// check singles out the culprit among clusters whose overhead
		// merely suffers from the same saturated link.
		clusters := RankClusters(stats, e.cfg.Weights)
		if d, ok := e.bandwidthDrop(stats, clusters, wae, n); ok {
			return d
		}
		// Fallback when no per-pair transfer samples exist: the cluster
		// with "exceptionally high" inter-cluster overhead, provided it
		// clearly dominates the runner-up.
		worst, second := 0, -1
		for i := 1; i < len(clusters); i++ {
			switch {
			case clusters[i].InterComm > clusters[worst].InterComm:
				second = worst
				worst = i
			case second < 0 || clusters[i].InterComm > clusters[second].InterComm:
				second = i
			}
		}
		dominates := len(clusters) > 1 &&
			clusters[worst].InterComm > e.cfg.ClusterDropInterComm
		if dominates && second >= 0 {
			dominates = clusters[worst].InterComm >
				clusters[second].InterComm*ClusterDropRelative
		}
		if dominates {
			c := clusters[worst]
			if n-len(c.Nodes) >= e.cfg.MinNodes {
				return Decision{
					Action:           ActionRemoveCluster,
					WAE:              wae,
					RemoveCluster:    c.Cluster,
					RemoveNodes:      c.Nodes,
					ClusterInterComm: c.InterComm,
					Reason: fmt.Sprintf("cluster %s inter-cluster overhead %.0f%% > %.0f%%: uplink bandwidth insufficient, evacuating cluster",
						c.Cluster, c.InterComm*100, e.cfg.ClusterDropInterComm*100),
				}
			}
		}
		k := e.ShrinkCount(n, wae)
		if k == 0 {
			return Decision{Action: ActionNone, WAE: wae,
				Reason: fmt.Sprintf("WAE %.3f < EMin %.2f but already at MinNodes=%d", wae, e.cfg.EMin, e.cfg.MinNodes)}
		}
		ranked := RankNodes(stats, e.cfg.Weights)
		victims := make([]NodeID, 0, k)
		for _, nb := range ranked[:k] {
			victims = append(victims, nb.Node)
		}
		return Decision{
			Action:      ActionRemoveNodes,
			WAE:         wae,
			RemoveNodes: victims,
			Reason: fmt.Sprintf("WAE %.3f < EMin %.2f on %d nodes: remove %d worst",
				wae, e.cfg.EMin, n, k),
		}

	default:
		return Decision{Action: ActionNone, WAE: wae,
			Reason: fmt.Sprintf("WAE %.3f within [%.2f,%.2f]", wae, e.cfg.EMin, e.cfg.EMax)}
	}
}

// bandwidthDrop is the primary cluster-eviction rule, available when
// the statistics carry per-pair transfer samples: estimate every
// cluster pair's achieved bandwidth from measured data transfer times
// (the paper's own proposal), identify the cluster whose best pair is
// the grid's bottleneck, and evacuate it when it is degraded by more
// than ClusterDropBWRatio relative to the healthiest pair.
func (e *Engine) bandwidthDrop(stats []NodeStats, clusters []ClusterBadness, wae float64, n int) (Decision, bool) {
	if e.cfg.ClusterDropBWRatio <= 0 {
		return Decision{}, false // rule disabled (ablations)
	}
	culprit, bw, ref, ok := BandwidthCulprit(stats, MinPairBytes)
	if !ok || ref <= 0 || bw > ref*e.cfg.ClusterDropBWRatio {
		return Decision{}, false
	}
	for _, c := range clusters {
		if c.Cluster != culprit {
			continue
		}
		if n-len(c.Nodes) < e.cfg.MinNodes {
			return Decision{}, false
		}
		return Decision{
			Action:            ActionRemoveCluster,
			WAE:               wae,
			RemoveCluster:     c.Cluster,
			RemoveNodes:       c.Nodes,
			ClusterInterComm:  c.InterComm,
			MeasuredBandwidth: bw,
			Reason: fmt.Sprintf("cluster %s best-pair bandwidth %.0f B/s vs %.0f B/s elsewhere: uplink insufficient, evacuating cluster",
				c.Cluster, bw, ref),
		}, true
	}
	return Decision{}, false
}
