package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/workload"
)

// EventKind enumerates scenario disturbances. The first three map to
// des.Injection kinds and also apply to the live runtime through
// satin.Grid; the last two are transport-level faults only the live
// runtime (via FaultTransport) can experience — the DES abstracts
// messages away and its analogue is already covered by crash + shape.
type EventKind int

const (
	// EvLoad puts a competing CPU load on a cluster.
	EvLoad EventKind = iota
	// EvShape degrades a cluster's uplink bandwidth.
	EvShape
	// EvCrash kills Count nodes of a cluster abruptly (0 = all).
	EvCrash
	// EvDrop makes a cluster's uplink lossy and jittery (live only).
	EvDrop
	// EvPartition cuts a cluster off entirely until Heal (live only).
	EvPartition
	// EvRootCrash kills the root coordinator (sharded runs only):
	// adaptation pauses until the sub-coordinators elect a successor.
	EvRootCrash
	// EvSubCrash kills one cluster's sub-coordinator (sharded runs
	// only); it restarts empty and re-learns the epoch from the root.
	EvSubCrash
)

func (k EventKind) String() string {
	switch k {
	case EvLoad:
		return "load"
	case EvShape:
		return "shape"
	case EvCrash:
		return "crash"
	case EvDrop:
		return "drop"
	case EvPartition:
		return "partition"
	case EvRootCrash:
		return "root-crash"
	case EvSubCrash:
		return "sub-crash"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scheduled disturbance, in scenario (virtual) seconds.
type Event struct {
	At      float64
	Kind    EventKind
	Cluster core.ClusterID

	Count     int     // EvCrash: victims (0 = whole cluster)
	Load      float64 // EvLoad: competing load factor
	Bandwidth float64 // EvShape: new uplink capacity, bytes/s
	Drop      float64 // EvDrop: per-frame loss probability
	Delay     float64 // EvDrop: added jitter ceiling, seconds
	Heal      float64 // EvDrop/EvPartition: when the fault clears (0 = never)
}

func (e Event) String() string {
	if e.Kind == EvRootCrash {
		// The root crash is a whole-tree fault; no cluster to name.
		return fmt.Sprintf("t=%.0f %s", e.At, e.Kind)
	}
	s := fmt.Sprintf("t=%.0f %s %s", e.At, e.Kind, e.Cluster)
	switch e.Kind {
	case EvLoad:
		s += fmt.Sprintf(" x%.1f", e.Load)
	case EvShape:
		s += fmt.Sprintf(" %.0fKB/s", e.Bandwidth/1e3)
	case EvCrash:
		if e.Count > 0 {
			s += fmt.Sprintf(" %d nodes", e.Count)
		} else {
			s += " all"
		}
	case EvDrop:
		s += fmt.Sprintf(" p=%.2f", e.Drop)
	}
	if e.Heal > 0 {
		s += fmt.Sprintf(" heal@%.0f", e.Heal)
	}
	return s
}

// Scenario is one generated chaos run: a topology, an initial
// allocation, and an injection schedule — all a pure function of Seed.
type Scenario struct {
	Seed    int64
	Topo    topo.Topology
	Initial []des.Alloc
	Spec    workload.Spec
	Period  float64
	Horizon float64 // abort bound, virtual seconds
	Events  []Event

	// Stream, when set, makes this a streaming-pipeline scenario
	// (ISSUE 9): Spec is ignored, the run adapts against the latency SLO
	// (core.StreamSLO on Stream.TargetLatency) instead of the WAE band,
	// and the invariants of interest become SLO recovery and
	// no-oscillation rather than WAE recovery.
	Stream *workload.StreamSpec

	// Refuge is a cluster the generator never disturbs, so the grid
	// always retains healthy capacity and WAE recovery is achievable.
	Refuge core.ClusterID

	// Sharded marks a scenario generated for the hierarchical
	// coordinator tree; coordinator-kill events require it.
	Sharded bool
}

// DisturbEnd is the time the last disturbance lands or heals — the
// point after which the WAE-recovery invariant starts watching.
func (sc Scenario) DisturbEnd() float64 {
	end := 0.0
	for _, e := range sc.Events {
		t := e.At
		if e.Heal > t {
			t = e.Heal
		}
		if t > end {
			end = t
		}
	}
	return end
}

// GenConfig bounds the randomized generator. The zero value gives the
// default corpus shape.
type GenConfig struct {
	MinClusters int // default 3
	MaxClusters int // default 5
	MinNodes    int // per cluster, default 2
	MaxNodes    int // per cluster, default 6
	MaxEvents   int // default 3
	Period      float64
	// LiveFaults includes transport-level kinds (EvDrop, EvPartition)
	// that only the live runtime can apply. Leave false for DES runs.
	LiveFaults bool
	// CoordFaults includes coordinator kills (EvRootCrash, EvSubCrash)
	// and marks the scenario Sharded — the flat coordinator has no
	// failover to test.
	CoordFaults bool
	// Streaming generates a streaming-pipeline scenario instead of a
	// batch one: Scenario.Stream is set and DESParams selects the
	// StreamSLO objective.
	Streaming bool
}

func (g *GenConfig) defaults() {
	if g.MinClusters == 0 {
		g.MinClusters = 3
	}
	if g.MaxClusters == 0 {
		g.MaxClusters = 5
	}
	if g.MinNodes == 0 {
		g.MinNodes = 2
	}
	if g.MaxNodes == 0 {
		g.MaxNodes = 6
	}
	if g.MaxEvents == 0 {
		g.MaxEvents = 3
	}
	if g.Period == 0 {
		g.Period = 180
	}
}

// Generate builds the scenario for a seed. Same seed, same scenario —
// the corpus tests rely on it, and a failure report is just the seed.
func Generate(seed int64, cfg GenConfig) Scenario {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	span := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

	nClusters := span(cfg.MinClusters, cfg.MaxClusters)
	speeds := []float64{0.75, 1, 1, 1.5}
	var t topo.Topology
	for i := 0; i < nClusters; i++ {
		t.Clusters = append(t.Clusters, topo.Cluster{
			ID:              core.ClusterID(fmt.Sprintf("ch%d", i)),
			Nodes:           span(cfg.MinNodes, cfg.MaxNodes),
			Speed:           speeds[rng.Intn(len(speeds))],
			LANLatency:      topo.LANLatency,
			LANBandwidth:    topo.FastEthernetBandwidth,
			WANLatency:      topo.WANLatencyOneWay,
			UplinkBandwidth: topo.BackboneUplink,
		})
	}

	// The refuge keeps recovery achievable: it is never disturbed and
	// is guaranteed real capacity at normal speed.
	refugeIdx := rng.Intn(nClusters)
	refuge := &t.Clusters[refugeIdx]
	if refuge.Nodes < 4 {
		refuge.Nodes = 4
	}
	refuge.Speed = 1

	// Initial allocation: the master's cluster plus possibly a second
	// site. The master cluster is also spared from crash events (the
	// kernel protects the master from eviction; the generator keeps
	// full-site losses away from it so every scenario can finish).
	masterIdx := rng.Intn(nClusters)
	sc := Scenario{
		Seed:   seed,
		Topo:   t,
		Period: cfg.Period,
		Refuge: t.Clusters[refugeIdx].ID,
	}
	first := t.Clusters[masterIdx]
	sc.Initial = append(sc.Initial, des.Alloc{Cluster: first.ID, Count: span(1, first.Nodes)})
	if rng.Float64() < 0.5 {
		secondIdx := rng.Intn(nClusters)
		if secondIdx != masterIdx {
			second := t.Clusters[secondIdx]
			sc.Initial = append(sc.Initial, des.Alloc{Cluster: second.ID, Count: span(1, second.Nodes)})
		}
	}

	startNodes := 0
	for _, a := range sc.Initial {
		startNodes += a.Count
	}
	// Sized so the run spans well past the event window (disturbances
	// land between periods 2 and 8): ~20 iterations of a couple of
	// monitoring periods each, whatever the adaptation does.
	if cfg.Streaming {
		// The open-loop source offers about half the initial capacity
		// (1.5 speed-seconds of stage work per item, nodes near speed 1),
		// so the pipeline starts healthy and only a disturbance pushes
		// latency over the SLO; the source runs ~30 periods, leaving a
		// long post-disturbance window for the recovery invariant.
		rate := float64(startNodes) / 3
		sc.Stream = &workload.StreamSpec{
			Name: fmt.Sprintf("chaos-stream-%d", seed),
			Stages: []workload.StreamStage{
				{Name: "decode", WorkPerItem: 0.3, BytesPerItem: 64 << 10},
				{Name: "transform", WorkPerItem: 0.9, BytesPerItem: 32 << 10},
				{Name: "encode", WorkPerItem: 0.3, BytesPerItem: 32 << 10},
			},
			RateHz:        rate,
			Items:         int(rate * 30 * cfg.Period),
			TargetLatency: 6,
		}
	} else {
		sc.Spec = workload.Spec{
			Name:                   fmt.Sprintf("chaos-%d", seed),
			Iterations:             20,
			WorkPerIteration:       150 * float64(startNodes),
			SequentialPerIteration: 2,
			Grain:                  0.25,
			Irregularity:           0.5,
			BytesPerNode:           8e6,
			ExchangeBytes:          0.5e6,
			StealMsgBytes:          4096,
		}
	}
	sc.Horizon = 80 * cfg.Period

	// Disturbances hit only clusters that are neither the refuge nor
	// (for crashes) the master's home — and prefer clusters the
	// application starts on, where a disturbance actually hurts.
	occupied := make(map[core.ClusterID]bool)
	for _, a := range sc.Initial {
		occupied[a.Cluster] = true
	}
	var targets, crashable []core.ClusterID
	for i, c := range t.Clusters {
		if i == refugeIdx {
			continue
		}
		targets = append(targets, c.ID)
		if occupied[c.ID] {
			targets = append(targets, c.ID, c.ID) // triple weight
		}
		if i != masterIdx {
			crashable = append(crashable, c.ID)
		}
	}
	kinds := []EventKind{EvLoad, EvShape, EvCrash}
	if cfg.LiveFaults {
		kinds = append(kinds, EvDrop, EvPartition)
	}
	if cfg.CoordFaults {
		sc.Sharded = true
		kinds = append(kinds, EvRootCrash, EvSubCrash)
	}
	nEvents := span(1, cfg.MaxEvents)
	for i := 0; i < nEvents && len(targets) > 0; i++ {
		e := Event{
			At:      cfg.Period * (2 + 4*rng.Float64()),
			Kind:    kinds[rng.Intn(len(kinds))],
			Cluster: targets[rng.Intn(len(targets))],
		}
		switch e.Kind {
		case EvLoad:
			e.Load = 4 + 12*rng.Float64()
		case EvShape:
			e.Bandwidth = 50e3 + 250e3*rng.Float64()
		case EvCrash:
			if len(crashable) == 0 {
				// Nothing safely crashable: degrade to a load burst.
				e.Kind = EvLoad
				e.Load = 4 + 12*rng.Float64()
				break
			}
			e.Cluster = crashable[rng.Intn(len(crashable))]
			c, _ := t.Cluster(e.Cluster)
			e.Count = rng.Intn(c.Nodes + 1) // 0 = all
		case EvDrop:
			e.Drop = 0.05 + 0.25*rng.Float64()
			e.Delay = 0.01 + 0.04*rng.Float64()
			e.Heal = e.At + cfg.Period*(1+2*rng.Float64())
		case EvPartition:
			e.Heal = e.At + cfg.Period*(0.5+rng.Float64())
		case EvRootCrash:
			// A whole-tree fault; recovery takes the tree's failover
			// threshold of silent summary periods plus the successor's
			// first fresh tick.
			e.Cluster = ""
		case EvSubCrash:
			// Any disturbed-side cluster works: the sub restarts empty
			// after the detection delay and re-learns the epoch.
		}
		sc.Events = append(sc.Events, e)
	}
	return sc
}

// Injections maps the scenario onto the simulator's event model.
// Transport-level kinds have no DES representation and are skipped.
func (sc Scenario) Injections() []des.Injection {
	var out []des.Injection
	for _, e := range sc.Events {
		inj := des.Injection{
			At:      e.At,
			Cluster: e.Cluster,
			Label:   e.String(),
		}
		switch e.Kind {
		case EvLoad:
			inj.Kind = des.InjSetLoad
			inj.Load = e.Load
		case EvShape:
			inj.Kind = des.InjShapeUplink
			inj.Bandwidth = e.Bandwidth
		case EvCrash:
			inj.Kind = des.InjCrash
			inj.Count = e.Count
		case EvRootCrash:
			inj.Kind = des.InjCrashRoot
		case EvSubCrash:
			inj.Kind = des.InjCrashSub
		default:
			continue
		}
		out = append(out, inj)
	}
	return out
}

// DESParams assembles a full simulator run for the scenario: batch
// scenarios get the paper's default WAE-band configuration, streaming
// scenarios the default latency-SLO objective (the two are mutually
// exclusive — a run has one objective).
func (sc Scenario) DESParams() des.Params {
	p := des.Params{
		Topo:    sc.Topo,
		Spec:    sc.Spec,
		Seed:    sc.Seed,
		Initial: sc.Initial,
		Mon:     des.DefaultMonitor(),
		Events:  sc.Injections(),
		MaxTime: sc.Horizon,
	}
	if sc.Stream != nil {
		p.Stream = sc.Stream
		p.StreamSLO = &core.StreamSLOConfig{TargetLatency: sc.Stream.TargetLatency}
	} else {
		adapt := core.DefaultConfig()
		p.Adapt = &adapt
	}
	p.Mon.Period = sc.Period
	p.Sharded = sc.Sharded
	return p
}

// RunDES executes the scenario on the simulator, recording an
// Observation per coordinator tick for the invariant checker.
func RunDES(sc Scenario) (*des.Result, []Observation, error) {
	p := sc.DESParams()
	var obs []Observation
	p.Observe = func(rec des.PeriodRecord, reqs *core.Requirements, per map[core.ClusterID]int) {
		obs = append(obs, NewObservation(rec, reqs, per))
	}
	res, err := des.Run(p)
	return res, obs, err
}
