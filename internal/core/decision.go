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

	// UnweightedEfficiency makes the coordinator judge the classic
	// (speed-blind) parallel efficiency, the mean of 1 - overhead,
	// instead of the weighted average efficiency — the ablation showing
	// why the paper's weighting matters on heterogeneous resources.
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

// Engine holds a validated Config and the Figure-2 step sizes; it
// decides nothing itself. BatchWAE judges the band with it, the
// coordinator's root (internal/coord) applies the eviction rules with
// its thresholds, and learned requirements live in Requirements.
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
