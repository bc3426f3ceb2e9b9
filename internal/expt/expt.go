// Package expt wires up the paper's evaluation (§5): the six Barnes-Hut
// scenarios on DAS-2, each runnable in three variants — without
// monitoring and adaptation ("runtime 1"), with both ("runtime 2"), and
// with monitoring/benchmarking but no adaptation ("runtime 3") — and
// produces the runtime table of Figure 1 and the iteration-duration
// series of Figures 3–7.
package expt

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Variant selects the measurement mode of a run.
type Variant string

const (
	// NoAdapt is the paper's "runtime 1": no statistics, no
	// benchmarking, no adaptation.
	NoAdapt Variant = "no-adapt"
	// Adaptive is "runtime 2": monitoring plus adaptation.
	Adaptive Variant = "adaptive"
	// MonitorOnly is "runtime 3": monitoring and benchmarking on, but
	// the node set never changes — it prices the adaptation support.
	MonitorOnly Variant = "monitor-only"
)

// Scenario is one experiment of the evaluation section.
type Scenario struct {
	ID          string // "1", "2a".."2c", "3".."6", extensions "7"+
	Name        string
	Figure      string // the paper artefact it reproduces
	Description string
	Seed        int64
	Build       func(v Variant, seed int64) des.Params
}

// Outcome holds one scenario's results per variant.
type Outcome struct {
	Scenario Scenario
	Results  map[Variant]*des.Result
}

// Improvement is the paper's headline number per scenario: the runtime
// reduction of the adaptive run relative to the non-adaptive one.
func (o *Outcome) Improvement() float64 {
	na, ad := o.Results[NoAdapt], o.Results[Adaptive]
	if na == nil || ad == nil || na.Runtime == 0 {
		return 0
	}
	return (na.Runtime - ad.Runtime) / na.Runtime
}

// Overhead is scenario 1's number: the cost of monitoring plus
// benchmarking relative to the plain run.
func (o *Outcome) Overhead(v Variant) float64 {
	na, x := o.Results[NoAdapt], o.Results[v]
	if na == nil || x == nil || na.Runtime == 0 {
		return 0
	}
	return (x.Runtime - na.Runtime) / na.Runtime
}

// Run executes the scenario in the requested variants (all three when
// none are given).
func Run(sc Scenario, variants ...Variant) (*Outcome, error) {
	return RunWith(sc, nil, variants...)
}

// RunWith executes like Run but lets the caller decorate each
// variant's simulator parameters before the runs — observability
// hooks, recorders — without the scenario definitions knowing about
// them (gridsim uses this to put the recorder's clock on the
// simulator's virtual-time axis).
//
// The variants are independent simulations, so they run side by side,
// one goroutine each. decorate is called once per variant, in variant
// order, before any of them starts; a hook it installs (des.Params'
// Observe) runs on its variant's goroutine, so hooks of different
// variants may run concurrently. Each result is as deterministic as a
// run on its own. An error is the first in variant order, returned once
// every variant has finished.
func RunWith(sc Scenario, decorate func(v Variant, p *des.Params), variants ...Variant) (*Outcome, error) {
	if len(variants) == 0 {
		variants = []Variant{NoAdapt, Adaptive, MonitorOnly}
	}
	params := make([]des.Params, len(variants))
	for i, v := range variants {
		params[i] = sc.Build(v, sc.Seed)
		if decorate != nil {
			decorate(v, &params[i])
		}
	}
	results := make([]*des.Result, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i := range params {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = des.Run(params[i])
		}()
	}
	wg.Wait()
	out := &Outcome{Scenario: sc, Results: make(map[Variant]*des.Result, len(variants))}
	for i, v := range variants {
		if errs[i] != nil {
			return nil, fmt.Errorf("expt: scenario %s variant %s: %w", sc.ID, v, errs[i])
		}
		out.Results[v] = results[i]
	}
	return out, nil
}

// base returns the standard experimental setup: Barnes-Hut with 100k
// bodies on DAS-2, started on the given allocation, with the variant's
// monitoring/adaptation settings applied.
func base(v Variant, seed int64, iters int, initial []des.Alloc) des.Params {
	p := des.Params{
		Topo:    topo.DAS2(),
		Spec:    workload.BarnesHut(100000, iters),
		Seed:    seed,
		Initial: initial,
	}
	switch v {
	case Adaptive:
		p.Mon = des.DefaultMonitor()
		cfg := core.DefaultConfig()
		p.Adapt = &cfg
	case MonitorOnly:
		p.Mon = des.DefaultMonitor()
		cfg := core.DefaultConfig()
		p.Adapt = &cfg
		p.MonitorOnly = true
	}
	return p
}

// threeClusters is the paper's reasonable allocation: 36 nodes spread
// over three sites.
func threeClusters() []des.Alloc {
	return []des.Alloc{
		{Cluster: "fs0", Count: 12},
		{Cluster: "fs1", Count: 12},
		{Cluster: "fs2", Count: 12},
	}
}

// All returns the scenarios of the paper's evaluation plus the
// varying-parallelism extension.
func All() []Scenario {
	return []Scenario{
		{
			ID:     "1",
			Name:   "adaptivity overhead",
			Figure: "Figure 1 group 1 / §5.1",
			Description: "36 nodes in 3 clusters, no disturbances: prices the monitoring " +
				"and benchmarking support (runtime 2 and 3 vs runtime 1).",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				return base(v, seed, 30, threeClusters())
			},
		},
		{
			ID:     "2a",
			Name:   "expand from 8 nodes",
			Figure: "Figure 3 / §5.2",
			Description: "Started on far too few nodes (8, one cluster); the adaptive run " +
				"grows to the efficient allocation.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				return base(v, seed, 60, []des.Alloc{{Cluster: "fs0", Count: 8}})
			},
		},
		{
			ID:          "2b",
			Name:        "expand from 16 nodes",
			Figure:      "Figure 3 / §5.2",
			Description: "Started on 16 nodes in one cluster.",
			Seed:        42,
			Build: func(v Variant, seed int64) des.Params {
				return base(v, seed, 60, []des.Alloc{{Cluster: "fs0", Count: 16}})
			},
		},
		{
			ID:          "2c",
			Name:        "expand from 24 nodes",
			Figure:      "Figure 3 / §5.2",
			Description: "Started on 24 nodes in two clusters.",
			Seed:        42,
			Build: func(v Variant, seed int64) des.Params {
				return base(v, seed, 60, []des.Alloc{
					{Cluster: "fs0", Count: 12}, {Cluster: "fs1", Count: 12},
				})
			},
		},
		{
			ID:     "3",
			Name:   "overloaded processors",
			Figure: "Figure 4 / §5.3",
			Description: "A heavy competing load lands on one cluster after 200 s; the " +
				"coordinator evicts the overloaded nodes and replaces them.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 80, threeClusters())
				p.Events = []des.Injection{{
					At: 200, Kind: des.InjSetLoad, Cluster: "fs1", Load: 20,
					Label: "cpu load introduced",
				}}
				return p
			},
		},
		{
			ID:     "4",
			Name:   "overloaded network link",
			Figure: "Figure 5 / §5.4",
			Description: "One cluster's uplink is shaped to ~100 KB/s; the coordinator " +
				"drops the whole cluster after the first monitoring period and re-expands.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 60, threeClusters())
				p.Events = []des.Injection{{
					At: 1, Kind: des.InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3,
					Label: "one cluster is badly connected",
				}}
				return p
			},
		},
		{
			ID:     "5",
			Name:   "overloaded processors and link",
			Figure: "Figure 6 / §5.5",
			Description: "A throttled uplink plus lightly (~3x) loaded nodes elsewhere: " +
				"the bad cluster goes, then WAE sits between the thresholds so the slow " +
				"nodes stay — the paper's case for opportunistic migration.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 60, threeClusters())
				p.Events = []des.Injection{
					{At: 1, Kind: des.InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3,
						Label: "one cluster is badly connected"},
					{At: 1, Kind: des.InjSetLoad, Cluster: "fs1", Count: 6, Load: 2,
						Label: "6 nodes lightly overloaded"},
				}
				return p
			},
		},
		{
			ID:     "6",
			Name:   "crashing nodes",
			Figure: "Figure 7 / §5.6",
			Description: "Two of the three clusters crash after 500 s; the adaptive run " +
				"replaces the lost capacity within a few periods.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 80, threeClusters())
				p.Events = []des.Injection{
					{At: 500, Kind: des.InjCrash, Cluster: "fs1", Label: "2 out of 3 clusters crash"},
					{At: 500, Kind: des.InjCrash, Cluster: "fs2", Label: ""},
				}
				return p
			},
		},
		{
			ID:     "5x",
			Name:   "opportunistic migration (extension)",
			Figure: "§7 future work / §5.5 discussion",
			Description: "Scenario 5 with opportunistic migration enabled: after the bad " +
				"cluster leaves, faster idle processors are added even though WAE sits " +
				"between the thresholds, displacing the slow nodes — the paper's 'iteration " +
				"duration could be reduced even further'.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 60, threeClusters())
				p.Events = []des.Injection{
					{At: 1, Kind: des.InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3,
						Label: "one cluster is badly connected"},
					{At: 1, Kind: des.InjSetLoad, Cluster: "fs1", Count: 6, Load: 2,
						Label: "6 nodes lightly overloaded"},
				}
				p.Opportunistic = true
				return p
			},
		},
		{
			ID:     "8",
			Name:   "learned bandwidth requirement (extension)",
			Figure: "§3.3 'minimal bandwidth required by the application'",
			Description: "Two distinct badly connected sites: evicting the first teaches the " +
				"coordinator a minimum-bandwidth requirement, which the scheduler then uses " +
				"to refuse the second — something blacklisting alone cannot do.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 60, nil)
				dsl := func(id core.ClusterID) topo.Cluster {
					return topo.Cluster{
						ID: id, Nodes: 12, Speed: 1,
						LANLatency: topo.LANLatency, LANBandwidth: topo.FastEthernetBandwidth,
						WANLatency: topo.WANLatencyOneWay, UplinkBandwidth: 100e3,
					}
				}
				p.Topo = topo.Topology{Clusters: []topo.Cluster{
					{ID: "fs0", Nodes: 24, Speed: 1, LANLatency: topo.LANLatency,
						LANBandwidth: topo.FastEthernetBandwidth,
						WANLatency:   topo.WANLatencyOneWay, UplinkBandwidth: topo.BackboneUplink},
					{ID: "fs1", Nodes: 12, Speed: 1, LANLatency: topo.LANLatency,
						LANBandwidth: topo.FastEthernetBandwidth,
						WANLatency:   topo.WANLatencyOneWay, UplinkBandwidth: topo.BackboneUplink},
					dsl("dsl1"), dsl("dsl2"),
				}}
				p.Initial = []des.Alloc{
					{Cluster: "fs0", Count: 12},
					{Cluster: "fs1", Count: 12},
					{Cluster: "dsl1", Count: 12},
				}
				return p
			},
		},
		{
			ID:     "9",
			Name:   "load-aware benchmarking (extension)",
			Figure: "§3.2 / §5.1: 'would reduce the benchmarking overhead to almost zero'",
			Description: "Scenario 1 with the benchmark re-run only on processor load " +
				"changes: the adaptivity overhead collapses while scenario-3-style load " +
				"changes still get detected.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 30, threeClusters())
				p.Mon.LoadAware = true
				return p
			},
		},
		{
			ID:     "7",
			Name:   "varying degree of parallelism",
			Figure: "§3 bullet 5 (no paper figure)",
			Description: "The application's parallel work shrinks to a third mid-run and " +
				"recovers; the node set follows automatically — the paper's fifth " +
				"adaptation case, which it describes but does not plot.",
			Seed: 42,
			Build: func(v Variant, seed int64) des.Params {
				p := base(v, seed, 150, threeClusters())
				p.Spec = workload.VaryingParallelism(p.Spec, func(iter int) float64 {
					if iter >= 40 && iter < 110 {
						return 0.25
					}
					return 1
				})
				return p
			},
		},
		{
			ID:     "10",
			Name:   "streaming latency SLO (extension)",
			Figure: "workload classes beyond the batch WAE band",
			Description: "An open-loop 3-stage pipeline (4 items/s against a 5 s latency " +
				"target) on 10 nodes, 6 of which are slowed 10x mid-stream. The latency-SLO " +
				"objective grows the allocation until latency re-enters the target; without " +
				"adaptation the deficit queues items behind the slowed nodes for the rest " +
				"of the emission window.",
			Seed:  42,
			Build: buildStreaming,
		},
	}
}

// buildStreaming is scenario 10: the streaming workload class under an
// injected node slowdown. Offered load is 6 speed-seconds/s (4 items/s
// x 1.5 s/item) against 10 speed-1 nodes; the injection cuts effective
// capacity to ~4.5 speed-seconds/s, so the open-loop source outruns the
// pipeline unless the coordinator acts on the latency SLO.
func buildStreaming(v Variant, seed int64) des.Params {
	spec := workload.Pipeline3(4, 3000)
	p := des.Params{
		Topo:    topo.DAS2(),
		Stream:  &spec,
		Seed:    seed,
		Initial: []des.Alloc{{Cluster: "fs0", Count: 10}},
		Events: []des.Injection{
			{At: 150, Kind: des.InjSetLoad, Cluster: "fs0", Count: 6, Load: 9,
				Label: "6 nodes slowed 10x"},
		},
	}
	switch v {
	case Adaptive, MonitorOnly:
		p.Mon = des.DefaultMonitor()
		p.Mon.Period = 30
		p.StreamSLO = &core.StreamSLOConfig{TargetLatency: spec.TargetLatency}
		p.MonitorOnly = v == MonitorOnly
	}
	return p
}

// ByID finds a scenario.
func ByID(id string) (Scenario, bool) {
	for _, sc := range All() {
		if sc.ID == id {
			return sc, true
		}
	}
	return Scenario{}, false
}
