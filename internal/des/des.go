// Package des is the discrete-event grid simulator that stands in for
// the paper's testbed: DAS-2 hardware, the Satin divide-and-conquer
// runtime with cluster-aware random work stealing, the Ibis monitoring
// hooks, and the Zorilla scheduler. It executes an iterative
// divide-and-conquer workload (internal/workload) on a simulated
// heterogeneous grid (internal/topo + internal/netmodel), collects the
// per-period statistics of internal/metrics, and optionally runs the
// paper's adaptation coordinator (internal/core) against them.
//
// Everything runs in virtual time (internal/vtime), so the scenarios —
// hours of grid time — execute deterministically in milliseconds.
package des

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/steal"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Alloc is part of an initial allocation: Count nodes of one cluster.
type Alloc struct {
	Cluster core.ClusterID
	Count   int
}

// MonitorParams configures application monitoring and the
// application-specific speed benchmark.
type MonitorParams struct {
	// Enabled turns on statistics collection and benchmarking. The
	// paper's "runtime 1" baseline has it off; "runtime 2" (adaptive)
	// and "runtime 3" (monitoring only) have it on.
	Enabled bool
	// Period is the monitoring period in seconds (paper: 180).
	Period float64
	// LoadAware re-runs the benchmark only when the processor's load
	// changed since the last run — the paper's §3.2 optimisation that
	// "would reduce the benchmarking overhead to almost zero since the
	// processor load is not changing".
	LoadAware bool
}

// DefaultMonitor mirrors the paper's setup: monitoring on, 3-minute
// periods.
func DefaultMonitor() MonitorParams {
	return MonitorParams{Enabled: true, Period: 180}
}

// The simulated testbed's constants (DESIGN.md §1).
const (
	// benchWork is the work of one benchmark run in speed-seconds: the
	// application itself with a small problem size.
	benchWork = 2.0
	// benchBudget is the maximal fraction of a node's time the benchmark
	// may consume; it sets the re-run frequency (2–3 runs of a 3-minute
	// period).
	benchBudget = 0.03
	// speedNoise is the benchmark's relative measurement error
	// (±fraction).
	speedNoise = 0.02
	// joinDelay is the seconds between the scheduler granting a node and
	// the node taking part (deployment plus state transfer setup).
	joinDelay = 5
	// crashDetect is the failure-detection latency before a crashed
	// node's work is recomputed elsewhere.
	crashDetect = 10
	// pollInterval is the victim-side delay to handle one steal request;
	// competing load multiplies it (a loaded machine's runtime thread is
	// scheduled rarely).
	pollInterval = 0.002
)

// InjKind enumerates scenario injections.
type InjKind int

const (
	// InjSetLoad puts a competing CPU load on nodes: effective speed
	// becomes base/(1+Load) and message handling slows accordingly.
	InjSetLoad InjKind = iota
	// InjShapeUplink changes a cluster's uplink bandwidth (the paper's
	// traffic-shaping experiment).
	InjShapeUplink
	// InjCrash makes nodes fail abruptly: their queued and running
	// jobs are recomputed elsewhere after the fault is detected.
	InjCrash
	// InjCrashRoot kills the root coordinator (sharded runs only):
	// adaptation pauses until the sub-coordinators detect the silence
	// and elect a successor.
	InjCrashRoot
	// InjCrashSub kills one cluster's sub-coordinator (sharded runs
	// only); it restarts empty after crashDetect and re-learns the
	// reset epoch from the root's next ack.
	InjCrashSub
)

// Injection is a scheduled disturbance of the environment.
type Injection struct {
	At    float64
	Kind  InjKind
	Label string // annotation for the figures

	Cluster core.ClusterID
	// Count limits how many of the cluster's live nodes are affected
	// (0 = all of them).
	Count int

	Load      float64 // InjSetLoad: competing load factor (0 clears it)
	Bandwidth float64 // InjShapeUplink: new uplink capacity, bytes/s
}

// Params configures one simulated run.
type Params struct {
	Topo topo.Topology
	Spec workload.Spec
	Seed int64

	// Stream, when set, replaces the iterative divide-and-conquer
	// workload with an open-loop streaming pipeline: Spec is ignored and
	// the run ends when every item has left the last stage. Streaming
	// runs adapt against the latency SLO (StreamSLO), not the WAE band.
	Stream *workload.StreamSpec

	// StreamSLO enables the adaptation coordinator with the streaming
	// latency objective (core.StreamSLO). Mutually exclusive with Adapt:
	// a run has exactly one objective.
	StreamSLO *core.StreamSLOConfig

	// Initial is the user-chosen starting allocation.
	Initial []Alloc

	Mon MonitorParams

	// Adapt enables the adaptation coordinator with the given
	// configuration. nil = non-adaptive run. With MonitorOnly set the
	// coordinator computes everything but never acts (the paper's
	// "runtime 3", used to price monitoring and benchmarking).
	Adapt       *core.Config
	MonitorOnly bool

	Events []Injection

	// MaxTime aborts runs that stopped making progress (safety net).
	MaxTime float64

	// StealPolicy selects the load-balancing algorithm (ablation).
	StealPolicy StealPolicy

	// DisableBlacklist lets the scheduler hand back resources the
	// coordinator removed (ablation: without blacklisting, a persistent
	// bad link causes remove/re-add oscillation).
	DisableBlacklist bool

	// Opportunistic enables opportunistic migration — the paper's main
	// future-work item: even when WAE sits between the thresholds, the
	// coordinator asks the scheduler whether clearly faster processors
	// are available and adds them; the ordinary loop then sheds the
	// slower nodes. Requires a scheduler that can rank idle resources
	// by application-specific speed (sched.Pool.BestAvailable).
	Opportunistic bool

	// Sharded runs the hierarchical coordinator tree instead of the
	// flat kernel: one sub-coordinator per cluster aggregates its
	// cluster's reports into a ClusterSummary, and the root tick costs
	// O(clusters) however many nodes the world holds.
	Sharded bool
	// ProposalCap bounds the eviction candidates each ClusterSummary
	// carries (0 = all reporting nodes, which keeps flat/sharded
	// decision parity exact on small worlds).
	ProposalCap int

	// Observe, when set, is called after every coordinator tick with
	// the period record, the learned requirements, and the per-cluster
	// live-node counts at that instant. The chaos harness uses it to
	// assert cross-runtime invariants (monotone blacklists, no
	// re-provisioning of evicted clusters) over the same unified log
	// the real runtime emits. Purely observational: the callback must
	// not mutate the simulation.
	Observe func(rec PeriodRecord, reqs *core.Requirements, perCluster map[core.ClusterID]int)
}

// StealPolicy is the work-stealing victim-selection algorithm. The
// policy itself lives in internal/steal — one kernel drives both this
// simulator and the live satin runtime.
type StealPolicy = steal.Policy

const (
	// StealCRS is cluster-aware random stealing: one asynchronous
	// wide-area steal outstanding while local steals run — Satin's
	// algorithm, the default.
	StealCRS = steal.CRS
	// StealRandom picks victims uniformly from all nodes and steals
	// synchronously, paying the WAN round trip in the idle path — the
	// baseline CRS was invented to beat.
	StealRandom = steal.Random
)

// Defaults fills zero fields with sensible values.
func (p *Params) Defaults() {
	if p.MaxTime == 0 {
		p.MaxTime = 200000
	}
	if p.Mon.Period == 0 {
		p.Mon.Period = 180
	}
}

// Validate checks the run is well-formed.
func (p *Params) Validate() error {
	if err := p.Topo.Validate(); err != nil {
		return err
	}
	if p.Stream != nil {
		if err := p.Stream.Validate(); err != nil {
			return err
		}
	} else if err := p.Spec.Validate(); err != nil {
		return err
	}
	if len(p.Initial) == 0 {
		return fmt.Errorf("des: empty initial allocation")
	}
	total := 0
	for _, a := range p.Initial {
		c, ok := p.Topo.Cluster(a.Cluster)
		if !ok {
			return fmt.Errorf("des: initial allocation names unknown cluster %s", a.Cluster)
		}
		if a.Count <= 0 || a.Count > c.Nodes {
			return fmt.Errorf("des: initial allocation of %d nodes in cluster %s (has %d)",
				a.Count, a.Cluster, c.Nodes)
		}
		total += a.Count
	}
	if total == 0 {
		return fmt.Errorf("des: zero initial nodes")
	}
	if p.Adapt != nil {
		if err := p.Adapt.Validate(); err != nil {
			return err
		}
		if !p.Mon.Enabled {
			return fmt.Errorf("des: adaptation requires monitoring to be enabled")
		}
	}
	if p.StreamSLO != nil {
		if p.Adapt != nil {
			return fmt.Errorf("des: Adapt and StreamSLO are mutually exclusive — a run has one objective")
		}
		if p.Stream == nil {
			return fmt.Errorf("des: StreamSLO set without a streaming workload")
		}
		if err := p.StreamSLO.Validate(); err != nil {
			return err
		}
		if !p.Mon.Enabled {
			return fmt.Errorf("des: adaptation requires monitoring to be enabled")
		}
	}
	return nil
}

// IterRecord is one application iteration in the result series — the
// unit the paper's figures 3–7 plot.
type IterRecord struct {
	Index    int
	Start    float64
	Duration float64
	Nodes    int // live nodes when the iteration completed
}

// PeriodRecord is one coordinator tick — the unified record emitted by
// the shared adaptation kernel (the real runtime logs the same type).
type PeriodRecord = coord.PeriodRecord

// Annotation marks a scenario event on the time axis.
type Annotation = coord.Annotation

// Result is everything a run produces.
type Result struct {
	Completed bool
	Runtime   float64 // time the last iteration finished

	Iterations  []IterRecord
	Periods     []PeriodRecord
	Annotations []Annotation

	// Aggregate node-time accounting across the whole run (seconds).
	BusySec, IdleSec, IntraSec, InterSec, BenchSec float64

	// NodeSeconds is the integral of live nodes over time — the grid
	// capacity the run consumed. The varying-parallelism scenario's win
	// is here: adaptation releases capacity the application cannot use.
	NodeSeconds float64

	// FinalNodes is the live node count at completion.
	FinalNodes int

	// PeakNodes is the maximum concurrently live node count.
	PeakNodes int

	// Events is the number of simulation events the run fired: the
	// simulator's own measure of the work a run was, whatever its
	// virtual length (divide by wall time for events per second).
	Events uint64

	// Learned requirements (adaptive runs).
	MinBandwidth        float64
	BlacklistedClusters []core.ClusterID

	// UsedClusters lists every cluster that hosted a participant at any
	// point of the run, sorted.
	UsedClusters []core.ClusterID

	// Streaming-run figures of merit (zero for batch runs).
	StreamCompleted  int     // items that left the last stage
	StreamLatencySum float64 // summed end-to-end latency, seconds
	StreamMaxLatency float64 // worst end-to-end latency, seconds
}

// MeanStreamLatency is the average end-to-end item latency of a
// streaming run, in seconds.
func (r *Result) MeanStreamLatency() float64 {
	if r.StreamCompleted == 0 {
		return 0
	}
	return r.StreamLatencySum / float64(r.StreamCompleted)
}

// MeanIterDuration averages iteration durations over [from, to).
func (r *Result) MeanIterDuration(from, to int) float64 {
	if to > len(r.Iterations) {
		to = len(r.Iterations)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return 0
	}
	sum := 0.0
	for _, it := range r.Iterations[from:to] {
		sum += it.Duration
	}
	return sum / float64(to-from)
}
