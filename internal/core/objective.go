// Pluggable adaptation objectives (ISSUE 9). The paper's Figure-2 loop
// hard-codes one goal — keep the weighted average efficiency inside
// [EMin, EMax] — which fits barrier-synchronised batch jobs but not
// continuous workloads. An Objective owns the policy end of the loop:
// it reduces one monitoring period's observations to a health scalar,
// turns health into a grow/hold/shrink verdict, and declares whether
// shrink victims are blacklisted (a badness judgement: the resource is
// unfit) or merely released (a capacity judgement: the resource may
// come back). The coordinator kernel (internal/coord) keeps the
// mechanism — smoothing, report plumbing, eviction, requirements
// learning, post-action reset — and consults the objective instead of
// comparing WAE to EMin/EMax directly.
package core

import (
	"fmt"
	"math"
)

// StreamObs is one monitoring period's view of a streaming pipeline:
// open-loop arrivals in, completed items out, the latency they paid,
// and what is still queued. Sub-coordinators ship per-cluster partials
// of exactly these fields inside ClusterSummary; summing partials
// yields the global observation, so Merge must stay a plain
// field-by-field sum.
type StreamObs struct {
	// Arrived counts items that entered the pipeline this period.
	Arrived int
	// Completed counts items that left the last stage this period.
	Completed int
	// LatencySum is the summed end-to-end latency (seconds) of the
	// completed items; LatencySum/Completed is the period's mean.
	LatencySum float64
	// Backlog is the number of items queued or in flight at period end.
	Backlog int
}

// Merge adds another partial observation.
func (o *StreamObs) Merge(p StreamObs) {
	o.Arrived += p.Arrived
	o.Completed += p.Completed
	o.LatencySum += p.LatencySum
	o.Backlog += p.Backlog
}

// MeanLatency is the period's mean end-to-end latency (0 if nothing
// completed).
func (o StreamObs) MeanLatency() float64 {
	if o.Completed == 0 {
		return 0
	}
	return o.LatencySum / float64(o.Completed)
}

// PeriodObs is everything an objective may observe about one period:
// what the coordinator's root reduced the period's reports to.
type PeriodObs struct {
	// Efficiency is the period's aggregate efficiency over the
	// reporting nodes — the WAE reconstructed from cluster partials, or
	// the unweighted mean under the UnweightedEfficiency ablation; 0
	// when no node reported.
	Efficiency float64
	// Stream carries the period's streaming observation, when any.
	Stream *StreamObs
}

// Verdict is the objective's directional judgement on one period.
type Verdict int

const (
	// VerdictHold: the health scalar is inside the objective's band.
	VerdictHold Verdict = iota
	// VerdictGrow: request more nodes.
	VerdictGrow
	// VerdictShrink: release nodes (count may be 0 when the floor is
	// already reached — mapped to no action, with the floor reason).
	VerdictShrink
	// VerdictShed: release the worst nodes AND blacklist them. Unlike
	// VerdictShrink's surplus release this is a judgement on the nodes:
	// they are actively harming the objective (a straggler holding
	// pipeline items hostage), so the provisioner must not hand them
	// straight back.
	VerdictShed
)

// Traits are the static policy properties the kernel consults when
// turning a verdict into effects.
type Traits struct {
	// BlacklistVictims: shrink victims are blacklisted so the scheduler
	// cannot hand them straight back (the batch badness judgement).
	// Objectives that shrink on surplus capacity leave victims
	// pardonable — the same nodes must be re-grantable when load
	// returns, or every load swing would permanently drain the pool.
	BlacklistVictims bool
	// ClusterEviction: the shrink path may escalate to whole-cluster
	// eviction via the bandwidth-culprit and inter-comm dominance rules
	// (and thereby tighten the learned bandwidth requirement).
	ClusterEviction bool
}

// Objective is the pluggable policy of the adaptation loop. Judge may
// be stateful (hysteresis) and is called at most once per monitoring
// period by the root kernel that drives the objective; Health and
// Explain must stay pure, so identical inputs render identical period
// logs however the coordinator is deployed.
type Objective interface {
	// Name identifies the objective in traces and annotations.
	Name() string
	// Traits returns the static policy properties.
	Traits() Traits
	// Health reduces one period's observations to the scalar recorded
	// in the period log (WAE for batch, target/latency for streams).
	Health(po PeriodObs) float64
	// Judge maps health and the current node count to a verdict plus a
	// magnitude (nodes to add or remove).
	Judge(health float64, n int) (Verdict, int)
	// Explain renders the verdict's reason string for the period log.
	Explain(v Verdict, health float64, n, count int) string
}

// ---- BatchWAE: the paper's efficiency band, extracted ----------------

// BatchWAE is the original objective: keep the weighted average
// efficiency inside [EMin, EMax], rank victims by badness, escalate to
// whole-cluster eviction on bandwidth emergencies, and blacklist what
// was removed. It takes its thresholds and step sizes from the decision
// Engine.
type BatchWAE struct {
	eng *Engine
}

// NewBatchWAE validates cfg and returns the batch objective.
func NewBatchWAE(cfg Config) (*BatchWAE, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &BatchWAE{eng: eng}, nil
}

// Engine exposes the wrapped decision engine (the kernel's cluster
// eviction mechanics need ShrinkCount and the culprit thresholds).
func (b *BatchWAE) Engine() *Engine { return b.eng }

// Name implements Objective.
func (b *BatchWAE) Name() string { return "batch-wae" }

// Traits implements Objective.
func (b *BatchWAE) Traits() Traits {
	return Traits{BlacklistVictims: true, ClusterEviction: true}
}

// Health implements Objective: the period's aggregate efficiency.
func (b *BatchWAE) Health(po PeriodObs) float64 { return po.Efficiency }

// Judge implements Objective: the paper's band comparison with the
// Eager-derived grow step and the symmetric shrink step.
func (b *BatchWAE) Judge(health float64, n int) (Verdict, int) {
	switch {
	case health > b.eng.cfg.EMax:
		return VerdictGrow, b.eng.GrowCount(n, health)
	case health < b.eng.cfg.EMin:
		return VerdictShrink, b.eng.ShrinkCount(n, health)
	}
	return VerdictHold, 0
}

// Explain implements Objective: the band's reason strings, which
// internal/coord's decision golden pins.
func (b *BatchWAE) Explain(v Verdict, health float64, n, count int) string {
	cfg := b.eng.cfg
	switch v {
	case VerdictGrow:
		return fmt.Sprintf("WAE %.3f > EMax %.2f on %d nodes: request %d more",
			health, cfg.EMax, n, count)
	case VerdictShrink:
		if count == 0 {
			return fmt.Sprintf("WAE %.3f < EMin %.2f but already at MinNodes=%d",
				health, cfg.EMin, cfg.MinNodes)
		}
		return fmt.Sprintf("WAE %.3f < EMin %.2f on %d nodes: remove %d worst",
			health, cfg.EMin, n, count)
	default:
		return fmt.Sprintf("WAE %.3f within [%.2f,%.2f]", health, cfg.EMin, cfg.EMax)
	}
}

// ---- StreamSLO: throughput/latency targets for pipelines -------------

// StreamSLOConfig parameterises the streaming objective. Shrink victims
// are ranked by the batch badness formula with the kernel's weights:
// slow or communication-bound nodes go first.
type StreamSLOConfig struct {
	// TargetLatency is the end-to-end latency SLO in seconds: the mean
	// latency of a period's completed items should stay below it.
	TargetLatency float64
}

// The streaming objective's state machine constants (DESIGN.md §1).
const (
	// highRatio: the objective grows when mean latency exceeds
	// highRatio × target (any overshoot is a violation).
	highRatio = 1.0
	// lowRatio: a period counts as calm when mean latency is below
	// lowRatio × target AND the backlog is empty. The gap between
	// highRatio and lowRatio is the hysteresis dead band that prevents
	// grow/shrink oscillation.
	lowRatio = 0.5
	// shrinkAfter is how many consecutive calm periods must pass before
	// one node is released.
	shrinkAfter = 4
	// streamMinNodes is the floor below which the pipeline never shrinks.
	streamMinNodes = 1
	// stuckAfter is the straggler guard: after this many consecutive
	// violating periods during which the node count did not grow —
	// grow requests are being made but the pool has nothing left to
	// grant — more capacity is evidently not coming, so the objective
	// starts shedding the worst-badness node each violating period
	// instead. A degraded node poisons pipeline latency by holding
	// items hostage, and shedding (with blacklisting, so it is not
	// handed straight back) is the only remaining lever.
	stuckAfter = 3
	// reboundWindow is the anti-oscillation guard: when an SLO
	// violation follows within this many judged periods of a release,
	// the release was a mistake — the survivors could not absorb the
	// load. The objective re-grows and learns the pre-release node
	// count as a capacity floor it never shrinks below again, so the
	// loop cannot cycle release/violate/re-grow around the same level.
	reboundWindow = 2
)

// Validate checks the configuration.
func (c StreamSLOConfig) Validate() error {
	if c.TargetLatency <= 0 {
		return fmt.Errorf("core: stream SLO needs TargetLatency > 0, got %v", c.TargetLatency)
	}
	return nil
}

// maxStreamHealth bounds the health scalar so a nearly-instant period
// cannot record +Inf (and histograms stay sane).
const maxStreamHealth = 100

// StreamHealth maps one period's stream observation to the health
// scalar: target/achieved mean latency, so 1.0 is exactly on target and
// larger is comfortably under it. An idle period (nothing arrived,
// nothing pending) is healthy; a stalled one (items waiting, none
// completed) scores 0.
func StreamHealth(o StreamObs, targetLatency float64) float64 {
	if o.Completed == 0 {
		if o.Backlog == 0 && o.Arrived == 0 {
			return 1
		}
		return 0
	}
	lat := o.MeanLatency()
	if lat <= 0 || targetLatency/lat > maxStreamHealth {
		return maxStreamHealth
	}
	return targetLatency / lat
}

// StreamSLO adapts a streaming pipeline to its latency SLO. Growth is
// immediate and proportional to the overshoot; shrink is deliberately
// sluggish — shrinkAfter consecutive calm periods, one node at a time,
// victims never blacklisted — because releasing capacity is a
// reversible economy measure, not a verdict on the node, and the
// asymmetry is what keeps the loop from oscillating around the target.
// When the asymmetry is not enough — a release is followed so closely
// by a violation that the release itself must have caused it — the
// rebound guard (reboundWindow) learns the pre-release node count as a
// capacity floor, so each level can be probed at most once.
type StreamSLO struct {
	cfg  StreamSLOConfig
	calm int // consecutive calm periods (hysteresis state)

	// Rebound tracking (the reboundWindow guard). Like the batch
	// engine's blacklist, floor is a requirement learned during the
	// run: monotone, never unlearned, and carried across post-action
	// resets because the objective instance is long-lived.
	floor       int // learned capacity floor, 0 = none
	lastShrinkN int // node count just before the latest release, 0 = none pending
	sinceShrink int // judged periods since that release

	// Straggler tracking (the stuckAfter guard).
	stuck     int // consecutive violating periods without capacity growth
	prevViolN int // node count at the previous violating period
}

// NewStreamSLO validates cfg and returns the streaming objective.
func NewStreamSLO(cfg StreamSLOConfig) (*StreamSLO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StreamSLO{cfg: cfg}, nil
}

// Name implements Objective.
func (s *StreamSLO) Name() string { return "stream-slo" }

// Traits implements Objective: capacity-only shrink, no blacklisting,
// no cluster eviction.
func (s *StreamSLO) Traits() Traits { return Traits{} }

// Health implements Objective.
func (s *StreamSLO) Health(po PeriodObs) float64 {
	if po.Stream == nil {
		return 1 // no streaming observation this period: nothing to react to
	}
	return StreamHealth(*po.Stream, s.cfg.TargetLatency)
}

// minNodes is the effective shrink floor: streamMinNodes, raised by
// whatever capacity level the rebound guard has learned to be
// load-bearing.
func (s *StreamSLO) minNodes() int {
	if s.floor > streamMinNodes {
		return s.floor
	}
	return streamMinNodes
}

// Judge implements Objective. health is target/latency: below
// 1/highRatio the SLO is violated and the pipeline grows; above
// 1/lowRatio the period is calm and the hysteresis counter advances;
// anywhere between, the counter resets and nothing happens.
func (s *StreamSLO) Judge(health float64, n int) (Verdict, int) {
	if s.lastShrinkN > 0 {
		s.sinceShrink++
		if s.sinceShrink > reboundWindow {
			// The release stuck: later violations are new load, not the
			// shrink's fault.
			s.lastShrinkN = 0
		}
	}
	switch {
	case health*highRatio < 1:
		s.calm = 0
		if s.lastShrinkN > 0 {
			// The violation chased the release: that capacity was
			// load-bearing after all. Learn it as a floor so the loop
			// cannot oscillate release/violate/re-grow around it.
			if s.lastShrinkN > s.floor {
				s.floor = s.lastShrinkN
			}
			s.lastShrinkN = 0
		}
		if n <= 0 {
			s.stuck, s.prevViolN = 0, 0
			return VerdictGrow, 1
		}
		if n > s.prevViolN {
			// New capacity arrived since the last violating period; give
			// it a chance to absorb the load before concluding stuck.
			s.stuck = 0
		}
		s.prevViolN = n
		s.stuck++
		if s.stuck > stuckAfter && n > s.minNodes() {
			return VerdictShed, 1
		}
		// Proportional response: latency overshoot 1/health means the
		// pipeline needs roughly that factor more capacity.
		overshoot := float64(maxStreamHealth)
		if health > 0 {
			overshoot = 1 / health
		}
		add := int(math.Round(float64(n) * (overshoot - 1)))
		if add < 1 {
			add = 1
		}
		if cap := int(math.Ceil(float64(n) * maxGrowFactor)); add > cap {
			add = cap
		}
		return VerdictGrow, add
	case health*lowRatio > 1:
		s.calm++
		s.stuck, s.prevViolN = 0, 0
		if s.calm >= shrinkAfter && n > s.minNodes() {
			s.calm = 0
			s.lastShrinkN = n
			s.sinceShrink = 0
			return VerdictShrink, 1
		}
		return VerdictHold, 0
	default:
		s.calm = 0
		s.stuck, s.prevViolN = 0, 0
		return VerdictHold, 0
	}
}

// Explain implements Objective.
func (s *StreamSLO) Explain(v Verdict, health float64, n, count int) string {
	switch v {
	case VerdictGrow:
		return fmt.Sprintf("stream health %.3f below SLO (target %.3gs) on %d nodes: request %d more",
			health, s.cfg.TargetLatency, n, count)
	case VerdictShrink:
		if count == 0 {
			return fmt.Sprintf("stream health %.3f but already at MinNodes=%d", health, s.minNodes())
		}
		return fmt.Sprintf("stream health %.3f calm for %d periods on %d nodes: release %d",
			health, shrinkAfter, n, count)
	case VerdictShed:
		return fmt.Sprintf("stream health %.3f stuck below SLO on %d nodes with no capacity coming: shed %d straggler",
			health, n, count)
	default:
		return fmt.Sprintf("stream health %.3f within band", health)
	}
}

var (
	_ Objective = (*BatchWAE)(nil)
	_ Objective = (*StreamSLO)(nil)
)
