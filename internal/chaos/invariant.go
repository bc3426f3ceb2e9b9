package chaos

import (
	"fmt"
	"sort"

	"repro/internal/coord"
	"repro/internal/core"
)

// Observation is one coordinator tick as the invariant checker sees
// it: the unified period record both runtimes emit, plus the learned
// requirements and the per-cluster occupation at that instant. The DES
// fills it from des.Params.Observe; the live harness samples
// adapt.Coordinator.History() alongside the grid's node census.
type Observation struct {
	Record              coord.PeriodRecord
	BlacklistedNodes    []core.NodeID
	BlacklistedClusters []core.ClusterID
	PerCluster          map[core.ClusterID]int
}

// NewObservation snapshots one tick: the requirement lists are the
// read-only snapshots core.Requirements hands out and the census is
// copied, so later mutation cannot corrupt the log.
func NewObservation(rec coord.PeriodRecord, reqs *core.Requirements, perCluster map[core.ClusterID]int) Observation {
	o := Observation{Record: rec}
	if reqs != nil {
		o.BlacklistedNodes = reqs.BlacklistedNodes()
		o.BlacklistedClusters = reqs.BlacklistedClusters()
	}
	o.PerCluster = make(map[core.ClusterID]int, len(perCluster))
	for c, n := range perCluster {
		o.PerCluster[c] = n
	}
	return o
}

// CheckConfig parameterises the invariant checker.
type CheckConfig struct {
	// EMin/EMax are the WAE thresholds of the run under test.
	EMin, EMax float64

	// DisturbEnd is when the last disturbance landed or healed; the
	// recovery invariant only watches ticks after it.
	DisturbEnd float64

	// RequireRecovery asserts that after DisturbEnd some tick with
	// fresh statistics sees WAE back at or above EMin. (Above EMax
	// counts as recovered too: efficiency overshooting the band means
	// the application is healthy and merely under-provisioned, which
	// the growth path handles.)
	RequireRecovery bool

	// ProvisionGrace is how many observations after a cluster first
	// appears blacklisted its population may still grow: a grant
	// issued before the eviction decision can land afterwards
	// (deployment takes the simulator's join delay). Default 1.
	ProvisionGrace int

	// Streaming-objective invariants (ISSUE 9). In a streaming run the
	// period record's WAE column carries stream health — TargetLatency
	// over the period's mean end-to-end latency, so 1.0 means exactly on
	// target and higher is better.

	// RequireSLORecovery asserts that after DisturbEnd the stream
	// health climbs back to SLORecoverHealth or above within
	// SLORecoverWithin fresh-statistics ticks: the latency spike a
	// fault causes must be adapted away, not merely survived.
	RequireSLORecovery bool
	// SLORecoverHealth is the health level that counts as recovered
	// (default 1: mean latency back at or under the target).
	SLORecoverHealth float64
	// SLORecoverWithin bounds how many post-disturbance ticks with
	// fresh statistics the recovery may take (0 = any tick before the
	// run ends).
	SLORecoverWithin int

	// MaxDirectionFlips, when positive, bounds grow/shrink oscillation:
	// the acting decision sequence may reverse direction (add ->
	// remove, or remove -> add) at most this many times over the whole
	// run. A healthy hysteresis loop reverses about once per
	// disturbance (grow into the fault, release after the recovery); an
	// unstable one alternates every few periods.
	MaxDirectionFlips int
}

// Violation is one invariant breach, pointing at the observation where
// it happened.
type Violation struct {
	Invariant string
	Index     int
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at tick %d: %s", v.Invariant, v.Index, v.Detail)
}

// Check runs every cross-runtime invariant over an observation stream
// and returns all breaches. An empty result means the adaptation loop
// behaved: blacklists only grew, evicted clusters were never
// re-provisioned, every action was grounded in fresh statistics, and
// (if required) WAE re-entered the healthy band after the disturbance.
func Check(obs []Observation, cfg CheckConfig) []Violation {
	if cfg.ProvisionGrace == 0 {
		cfg.ProvisionGrace = 1
	}
	var out []Violation

	// Blacklists only grow: each tick's sets contain the previous
	// tick's. (The kernel has no pardon path during a run; shrinkage
	// would mean state was lost or rebuilt.)
	for i := 1; i < len(obs); i++ {
		if miss := missingNodes(obs[i-1].BlacklistedNodes, obs[i].BlacklistedNodes); len(miss) > 0 {
			out = append(out, Violation{
				Invariant: "blacklist-monotone-nodes", Index: i,
				Detail: fmt.Sprintf("nodes %v left the blacklist", miss),
			})
		}
		if miss := missingClusters(obs[i-1].BlacklistedClusters, obs[i].BlacklistedClusters); len(miss) > 0 {
			out = append(out, Violation{
				Invariant: "blacklist-monotone-clusters", Index: i,
				Detail: fmt.Sprintf("clusters %v left the blacklist", miss),
			})
		}
	}

	// Evicted clusters stay evicted: once a cluster is blacklisted its
	// population must never grow again (after the grace window for
	// grants already in flight when the decision fell).
	firstSeen := make(map[core.ClusterID]int)
	for i, o := range obs {
		for _, c := range o.BlacklistedClusters {
			if _, ok := firstSeen[c]; !ok {
				firstSeen[c] = i
			}
		}
	}
	for c, seen := range firstSeen {
		for j := seen + cfg.ProvisionGrace + 1; j < len(obs); j++ {
			prev, cur := obs[j-1].PerCluster[c], obs[j].PerCluster[c]
			if cur > prev {
				out = append(out, Violation{
					Invariant: "no-reprovision-after-eviction", Index: j,
					Detail: fmt.Sprintf("blacklisted cluster %s grew %d -> %d nodes", c, prev, cur),
				})
			}
		}
	}

	// Actions need fresh statistics: the kernel discards all reports
	// after acting, so a decision in a period that ingested zero
	// reports would be chained off pre-action stale state. The only
	// legitimate statless action is the bootstrap add when the
	// computation has no live nodes at all.
	for i, o := range obs {
		r := o.Record
		if r.Action == "" || r.Action == "none" {
			continue
		}
		if r.Stats == 0 && !(r.Action == "add" && r.Nodes == 0) {
			out = append(out, Violation{
				Invariant: "action-needs-stats", Index: i,
				Detail: fmt.Sprintf("action %q taken with zero node reports (nodes=%d)", r.Action, r.Nodes),
			})
		}
	}

	// WAE recovery: after the disturbance settles, some tick with real
	// statistics must see efficiency back at or above EMin.
	if cfg.RequireRecovery {
		recovered, watched := false, 0
		worst := -1.0
		for _, o := range obs {
			r := o.Record
			if r.Time <= cfg.DisturbEnd || r.Stats == 0 {
				continue
			}
			watched++
			if r.WAE > worst {
				worst = r.WAE
			}
			if r.WAE >= cfg.EMin {
				recovered = true
				break
			}
		}
		// Zero post-disturbance ticks means the run ended first; the
		// completion check owns that case.
		if watched > 0 && !recovered {
			out = append(out, Violation{
				Invariant: "wae-recovery", Index: len(obs) - 1,
				Detail: fmt.Sprintf("WAE never re-entered [%.2f,%.2f] after t=%.0f (best %.3f over %d ticks)",
					cfg.EMin, cfg.EMax, cfg.DisturbEnd, worst, watched),
			})
		}
	}

	// SLO recovery: after the disturbance settles, the stream health
	// must re-enter the target within the allowed number of ticks. The
	// watch counts only ticks with fresh statistics — a post-action
	// reset period judges nothing and should not burn the budget.
	if cfg.RequireSLORecovery {
		floor := cfg.SLORecoverHealth
		if floor == 0 {
			floor = 1
		}
		recovered, watched := false, 0
		best := -1.0
		for _, o := range obs {
			r := o.Record
			if r.Time <= cfg.DisturbEnd || r.Stats == 0 {
				continue
			}
			watched++
			if r.WAE > best {
				best = r.WAE
			}
			if r.WAE >= floor {
				recovered = true
				break
			}
			if cfg.SLORecoverWithin > 0 && watched >= cfg.SLORecoverWithin {
				break
			}
		}
		// Zero post-disturbance ticks means the run ended first; the
		// completion check owns that case.
		if watched > 0 && !recovered {
			out = append(out, Violation{
				Invariant: "slo-recovery", Index: len(obs) - 1,
				Detail: fmt.Sprintf("stream health never reached %.2f within %d ticks after t=%.0f (best %.3f)",
					floor, watched, cfg.DisturbEnd, best),
			})
		}
	}

	// No oscillation: the grow/shrink sequence may reverse direction
	// only as often as the disturbance schedule justifies. Same-direction
	// repeats (growing in steps, releasing one node per calm period) are
	// fine; alternation means the objective's hysteresis band is broken.
	if cfg.MaxDirectionFlips > 0 {
		flips, last, lastFlip := 0, 0, 0
		for i, o := range obs {
			var dir int
			switch o.Record.Action {
			case "add":
				dir = 1
			case "remove-nodes", "remove-cluster":
				dir = -1
			default:
				continue
			}
			if last != 0 && dir != last {
				flips++
				lastFlip = i
			}
			last = dir
		}
		if flips > cfg.MaxDirectionFlips {
			out = append(out, Violation{
				Invariant: "no-oscillation", Index: lastFlip,
				Detail: fmt.Sprintf("decision sequence reversed grow/shrink direction %d times (allowed %d)",
					flips, cfg.MaxDirectionFlips),
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func missingNodes(prev, cur []core.NodeID) []core.NodeID {
	set := make(map[core.NodeID]bool, len(cur))
	for _, n := range cur {
		set[n] = true
	}
	var miss []core.NodeID
	for _, n := range prev {
		if !set[n] {
			miss = append(miss, n)
		}
	}
	return miss
}

func missingClusters(prev, cur []core.ClusterID) []core.ClusterID {
	set := make(map[core.ClusterID]bool, len(cur))
	for _, c := range cur {
		set[c] = true
	}
	var miss []core.ClusterID
	for _, c := range prev {
		if !set[c] {
			miss = append(miss, c)
		}
	}
	return miss
}
