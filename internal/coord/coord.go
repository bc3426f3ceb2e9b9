// Package coord implements the paper's Figure-2 adaptation loop ONCE,
// independently of the runtime that executes the application and of how
// many processes the coordinator is spread over. The loop is split at
// the seam the paper's §7 names: a SubKernel per cluster owns report
// ingestion, the freshest-per-node rule and two-period smoothing and
// reduces each period to one ClusterSummary; the RootKernel owns
// everything between "summaries arrive" and "effects are requested":
// the objective call, requirements learning (minimum bandwidth,
// blacklists), cluster eviction with its fallback, bootstrap when the
// computation died, fair-share yield, optional opportunistic migration,
// and the post-action reset. Kernel composes the two in one process;
// the sharded drivers put a network between them.
//
// Runtimes plug in through the small Actuator interface: the
// discrete-event simulator (internal/des) and the real
// registry+transport runtime (adapt) both feed metrics.Report values
// in and apply the kernel's effects out, so the adaptation policy can
// never diverge between them again. This is the separation the Cactus
// Worm line of work argues for — an adaptation manager decoupled from
// the execution substrate — and the precondition for hardening or
// replicating the coordinator without doing the work twice.
package coord

import (
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Veto is the scheduler-side filter derived from the learned
// requirements: it rejects blacklisted nodes and clusters.
type Veto = func(core.NodeID, core.ClusterID) bool

// Actuator is the runtime-facing side of the kernel: the four effects
// an adaptation decision can require. Implementations must be safe to
// call from the kernel's Tick (they are invoked with the kernel's lock
// held, so they must not call back into the kernel synchronously).
//
// The contract per method:
//
//   - Provision asks the runtime's scheduler for up to n nodes that
//     meet the learned minimum uplink bandwidth (0 = no bound),
//     skipping anything the veto rejects, preferring sites the
//     application already occupies (locality). It returns how many
//     nodes were actually granted.
//   - Evict signals the listed nodes to leave and returns the subset
//     that was actually signalled; the kernel blacklists exactly that
//     subset. The kernel never passes protected nodes.
//   - ObservedBandwidth is the grid monitoring service's NWS-style
//     view of the cluster's access-link capacity (0 = no such service
//     or link never exercised). It is the preferred source for the
//     learned bandwidth bound; per-report achieved shares are only the
//     fallback (see RootKernel.learnClusterBandwidth).
//   - Annotate marks an adaptation event on the runtime's timeline
//     (figures, logs). Purely informational.
type Actuator interface {
	Provision(n int, minBandwidth float64, veto Veto) int
	Evict(victims []core.NodeID, reason string) []core.NodeID
	ObservedBandwidth(cluster core.ClusterID) float64
	Annotate(label string)
}

// Migrator is the optional Actuator extension for opportunistic
// migration (the paper's §7 future-work item): a scheduler that can
// rank idle resources by application-specific speed and grant nodes
// from a named site. Actuators that do not implement it simply never
// migrate opportunistically.
type Migrator interface {
	// BestAvailable returns the free, non-vetoed cluster with the
	// fastest processors, its per-processor speed, and how many nodes
	// it has free ("" when nothing is available).
	BestAvailable(veto Veto) (core.ClusterID, float64, int)
	// ProvisionFrom is Provision restricted to one cluster.
	ProvisionFrom(cluster core.ClusterID, n int, minBandwidth float64, veto Veto) int
}

// PeriodRecord is one coordinator tick — the unified period-log entry
// both runtimes (and internal/trace) render.
type PeriodRecord struct {
	Time    float64 // seconds (virtual for the DES, since start for the real runtime)
	WAE     float64
	Nodes   int    // live participants at the tick
	Stats   int    // node reports the tick decided on (0 = nothing to decide)
	Action  string // add, none, remove-nodes, remove-cluster, yield or opportunistic-migrate; "" when idle/monitor-only
	Detail  string
	Added   int
	Removed int
}

// Annotation marks an adaptation or scenario event on the time axis.
type Annotation struct {
	Time  float64
	Label string
}

// Config tunes a Kernel or a RootKernel.
type Config struct {
	// Engine configures the batch decision engine; when Objective is
	// nil and Engine is set, the kernel runs the classic WAE band
	// (core.BatchWAE). Nil Engine with nil Objective means the kernel
	// only monitors (it records health but never decides).
	Engine *core.Config
	// Objective overrides the adaptation objective: the policy that
	// turns one period's observations into a grow/hold/shrink verdict.
	// Objectives may be stateful (hysteresis) and must not be shared
	// between kernels.
	Objective core.Objective
	// MonitorOnly computes and records but never decides or acts (the
	// paper's "runtime 3", used to price the adaptation support).
	MonitorOnly bool
	// DisableBlacklist lets the scheduler hand back removed resources
	// (ablation: a persistent bad link then causes oscillation).
	DisableBlacklist bool
	// Opportunistic enables opportunistic migration when the actuator
	// implements Migrator.
	Opportunistic bool
	// Pressure, when set, is the shared node pool's reclaim signal: how
	// many nodes this kernel's job holds beyond its fair share while
	// other jobs are starved. The kernel yields that many of its worst
	// nodes at the next tick — WITHOUT blacklisting them (they are not
	// bad, the grid is just contended; the pool may legitimately hand
	// them back later). This is how a coordinator participates in
	// multi-job arbitration instead of assuming it owns the scheduler.
	Pressure func() int
}

// opportunisticFactor is how much faster an available cluster must be
// than the slowest live node to trigger an opportunistic migration.
const opportunisticFactor = 1.5

// Weights are the badness weights the root ranks nodes with, and so the
// ones its subs must pre-rank their proposals with: the batch engine's,
// else core's defaults.
func (c Config) Weights() core.BadnessWeights {
	if c.Engine != nil {
		return c.Engine.Weights
	}
	return core.DefaultBadnessWeights()
}

// Kernel is the runtime-independent adaptation coordinator in one
// process: a private RootKernel over one in-process SubKernel per
// cluster its reports name, with no proposal cap, so the root ranks
// every reporting node. It is safe for concurrent use: the real runtime
// feeds Report from transport handlers while its ticker calls Tick.
type Kernel struct {
	root *RootKernel

	mu   sync.Mutex
	subs map[core.ClusterID]*SubKernel
}

// New builds a Kernel. cfg.Engine is validated when present.
func New(cfg Config, act Actuator) (*Kernel, error) {
	root, err := NewRoot(cfg, act)
	if err != nil {
		return nil, err
	}
	// Whole-cluster eviction removes the cluster's REPORTING nodes — the
	// sub's uncapped proposals — not the runtime's roster: a node that
	// joined the cluster and has not completed a period is not evidence
	// against its uplink.
	root.roster = nil
	return &Kernel{root: root, subs: make(map[core.ClusterID]*SubKernel)}, nil
}

// Requirements exposes what the run has taught the kernel.
func (k *Kernel) Requirements() *core.Requirements { return k.root.Requirements() }

// ObserveStream ingests one period's streaming observation, global to
// the kernel; the next Tick consumes it, even when no node has reported
// yet. Partial observations within a period merge by summation.
func (k *Kernel) ObserveStream(o core.StreamObs) { k.root.observeStream(o) }

// SetProtected replaces the protected set — used by runtimes where the
// protected role moves (a new master is elected after a crash).
func (k *Kernel) SetProtected(ids ...core.NodeID) { k.root.SetProtected(ids...) }

// Report ingests one node's per-period statistics at its cluster's
// sub-kernel.
func (k *Kernel) Report(rep metrics.Report) {
	k.mu.Lock()
	defer k.mu.Unlock()
	sub, ok := k.subs[rep.Cluster]
	if !ok {
		sub = NewSubKernel(rep.Cluster, 0, k.root.weights)
		k.subs[rep.Cluster] = sub
	}
	sub.Report(rep)
}

// Forget drops a departed node's state immediately (Tick also prunes
// nodes missing from the live set, so calling this is optional).
func (k *Kernel) Forget(id core.NodeID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, sub := range k.subs {
		sub.Forget(id)
	}
}

// Tick runs one pass of the paper's Figure-2 loop at time now over the
// runtime's current live set, and returns the period's record: every
// sub summarizes its live reporters, the root ingests the summaries at
// its current reset epoch and decides, and when it acted (the epoch
// moved) the subs are dropped — the stored reports and the smoothing
// window describe the pre-action configuration.
func (k *Kernel) Tick(now float64, live []core.NodeID) PeriodRecord {
	k.mu.Lock()
	defer k.mu.Unlock()

	liveSet := make(map[core.NodeID]bool, len(live))
	for _, id := range live {
		liveSet[id] = true
	}
	epoch := k.root.epoch()
	clusters := make([]core.ClusterID, 0, len(k.subs))
	for c, sub := range k.subs {
		sum := sub.summarize(now, liveSet)
		if sum.Stats == 0 {
			delete(k.subs, c) // every reporter of the cluster has left
			continue
		}
		sum.Epoch = epoch
		k.root.Ingest(sum)
		clusters = append(clusters, c)
	}
	rec := k.root.Tick(now, clusters, len(live))
	if k.root.epoch() != epoch {
		k.subs = make(map[core.ClusterID]*SubKernel)
	}
	return rec
}
