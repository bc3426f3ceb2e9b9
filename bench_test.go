// Benchmarks regenerating the paper's evaluation artefacts (one bench
// per table/figure) plus the ablations of DESIGN.md §5 and
// micro-benchmarks of the core metric. Custom metrics carry the
// numbers the paper reports:
//
//	runtime_s        total application runtime (virtual seconds)
//	improvement_pct  adaptive vs non-adaptive runtime reduction
//	overhead_pct     monitoring+benchmark cost vs plain run
//	iter_s           mean iteration duration
//
// Run:  go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/expt"
	"repro/satin"
)

// runScenario executes one scenario variant pair and reports the
// paper's headline numbers.
func runScenario(b *testing.B, id string, variants ...expt.Variant) {
	b.Helper()
	sc, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown scenario %s", id)
	}
	var out *expt.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = expt.Run(sc, variants...)
		if err != nil {
			b.Fatal(err)
		}
	}
	if na, ok := out.Results[expt.NoAdapt]; ok {
		b.ReportMetric(na.Runtime, "noadapt_runtime_s")
	}
	if ad, ok := out.Results[expt.Adaptive]; ok {
		b.ReportMetric(ad.Runtime, "adaptive_runtime_s")
		b.ReportMetric(float64(ad.FinalNodes), "final_nodes")
	}
	if _, ok := out.Results[expt.NoAdapt]; ok {
		if _, ok2 := out.Results[expt.Adaptive]; ok2 {
			b.ReportMetric(out.Improvement()*100, "improvement_pct")
		}
	}
	if mo, ok := out.Results[expt.MonitorOnly]; ok {
		b.ReportMetric(mo.Runtime, "monitoronly_runtime_s")
		b.ReportMetric(out.Overhead(expt.MonitorOnly)*100, "overhead_pct")
	}
}

// ---- Figure 1: the runtime bars of every scenario ----

func BenchmarkFigure1_Scenario1_Overhead(b *testing.B) {
	runScenario(b, "1", expt.NoAdapt, expt.Adaptive, expt.MonitorOnly)
}

func BenchmarkFigure1_Scenario2a(b *testing.B) {
	runScenario(b, "2a", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario2b(b *testing.B) {
	runScenario(b, "2b", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario2c(b *testing.B) {
	runScenario(b, "2c", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario3(b *testing.B) {
	runScenario(b, "3", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario4(b *testing.B) {
	runScenario(b, "4", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario5(b *testing.B) {
	runScenario(b, "5", expt.NoAdapt, expt.Adaptive)
}

func BenchmarkFigure1_Scenario6(b *testing.B) {
	runScenario(b, "6", expt.NoAdapt, expt.Adaptive)
}

// ---- §5.1: adaptivity overhead vs monitoring period ----

func BenchmarkScenario1_OverheadLongPeriod(b *testing.B) {
	sc, _ := expt.ByID("1")
	var na, mo *des.Result
	for i := 0; i < b.N; i++ {
		pNA := sc.Build(expt.NoAdapt, sc.Seed)
		pMO := sc.Build(expt.MonitorOnly, sc.Seed)
		pMO.Mon.Period = 600 // paper: a longer period shrinks the overhead
		var err error
		if na, err = des.Run(pNA); err != nil {
			b.Fatal(err)
		}
		if mo, err = des.Run(pMO); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((mo.Runtime-na.Runtime)/na.Runtime*100, "overhead_pct")
	total := mo.BusySec + mo.IdleSec + mo.IntraSec + mo.InterSec + mo.BenchSec
	b.ReportMetric(mo.BenchSec/total*100, "bench_time_pct")
}

// ---- Figures 3–7: iteration-duration series ----

// seriesMetrics reports the numbers the figures visualise: iteration
// time before/after the disturbance or expansion for both variants.
func seriesMetrics(b *testing.B, id string, splitIter int) {
	b.Helper()
	sc, _ := expt.ByID(id)
	var out *expt.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = expt.Run(sc, expt.NoAdapt, expt.Adaptive)
		if err != nil {
			b.Fatal(err)
		}
	}
	na, ad := out.Results[expt.NoAdapt], out.Results[expt.Adaptive]
	b.ReportMetric(na.MeanIterDuration(0, splitIter), "na_early_iter_s")
	b.ReportMetric(na.MeanIterDuration(len(na.Iterations)-10, len(na.Iterations)), "na_late_iter_s")
	b.ReportMetric(ad.MeanIterDuration(0, splitIter), "ad_early_iter_s")
	b.ReportMetric(ad.MeanIterDuration(len(ad.Iterations)-10, len(ad.Iterations)), "ad_late_iter_s")
	b.ReportMetric(out.Improvement()*100, "improvement_pct")
}

func BenchmarkFigure3_ExpandFrom8(b *testing.B)    { seriesMetrics(b, "2a", 5) }
func BenchmarkFigure3_ExpandFrom16(b *testing.B)   { seriesMetrics(b, "2b", 5) }
func BenchmarkFigure3_ExpandFrom24(b *testing.B)   { seriesMetrics(b, "2c", 5) }
func BenchmarkFigure4_OverloadedCPUs(b *testing.B) { seriesMetrics(b, "3", 15) }
func BenchmarkFigure5_OverloadedLink(b *testing.B) { seriesMetrics(b, "4", 5) }
func BenchmarkFigure6_OverloadBoth(b *testing.B)   { seriesMetrics(b, "5", 5) }
func BenchmarkFigure7_CrashingNodes(b *testing.B)  { seriesMetrics(b, "6", 30) }

// ---- §3 extension: varying degree of parallelism ----

func BenchmarkScenario7_VaryingParallelism(b *testing.B) {
	sc, _ := expt.ByID("7")
	var out *expt.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = expt.Run(sc, expt.NoAdapt, expt.Adaptive)
		if err != nil {
			b.Fatal(err)
		}
	}
	na, ad := out.Results[expt.NoAdapt], out.Results[expt.Adaptive]
	// The win here is capacity, not runtime: the adaptive run returns
	// nodes the application cannot use during the low-parallelism phase.
	b.ReportMetric(na.NodeSeconds, "na_node_seconds")
	b.ReportMetric(ad.NodeSeconds, "ad_node_seconds")
	b.ReportMetric((na.NodeSeconds-ad.NodeSeconds)/na.NodeSeconds*100, "capacity_saved_pct")
}

// ---- Ablations (DESIGN.md §5) ----

func scenario4Params(v expt.Variant) des.Params {
	sc, _ := expt.ByID("4")
	return sc.Build(v, sc.Seed)
}

// CRS vs uniform random stealing on the healthy 36-node setup.
func BenchmarkAblation_CRSvsRandomStealing(b *testing.B) {
	sc, _ := expt.ByID("1")
	var crs, rnd *des.Result
	for i := 0; i < b.N; i++ {
		pCRS := sc.Build(expt.NoAdapt, sc.Seed)
		pRND := sc.Build(expt.NoAdapt, sc.Seed)
		pRND.StealPolicy = des.StealRandom
		var err error
		if crs, err = des.Run(pCRS); err != nil {
			b.Fatal(err)
		}
		if rnd, err = des.Run(pRND); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(crs.Runtime, "crs_runtime_s")
	b.ReportMetric(rnd.Runtime, "random_runtime_s")
	b.ReportMetric((rnd.Runtime-crs.Runtime)/crs.Runtime*100, "crs_advantage_pct")
}

// β=100 vs β=0 in the badness formula under a saturated uplink, with
// the pair-bandwidth rule disabled so node-level removal must carry
// the adaptation. Finding: end-to-end runtimes converge either way —
// removal plus blacklisting is self-correcting over periods — so the
// value of β is ranking precision (unit-tested in internal/core), and
// the pair-bandwidth eviction rule supersedes it for link problems.
func BenchmarkAblation_BadnessBeta(b *testing.B) {
	var withBeta, noBeta *des.Result
	for i := 0; i < b.N; i++ {
		p1 := scenario4Params(expt.Adaptive)
		p2 := scenario4Params(expt.Adaptive)
		cfg1 := *p1.Adapt
		cfg1.ClusterDropBWRatio = 0 // node-level removal only, β=100
		cfg1.ClusterDropInterComm = 1.0
		p1.Adapt = &cfg1
		cfg := *p2.Adapt
		cfg.Weights.Beta = 0 // node-level removal only, β=0
		cfg.ClusterDropBWRatio = 0
		cfg.ClusterDropInterComm = 1.0 // strict >: never triggers
		p2.Adapt = &cfg
		var err error
		if withBeta, err = des.Run(p1); err != nil {
			b.Fatal(err)
		}
		if noBeta, err = des.Run(p2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(withBeta.Runtime, "beta100_runtime_s")
	b.ReportMetric(noBeta.Runtime, "beta0_runtime_s")
	// Whether the eviction actually drained the throttled cluster shows
	// in the tail iterations: β=0 ranks by speed alone, which is
	// uninformative here, so the bad nodes linger.
	nb := len(withBeta.Iterations)
	b.ReportMetric(withBeta.MeanIterDuration(nb-10, nb), "beta100_late_iter_s")
	nb = len(noBeta.Iterations)
	b.ReportMetric(noBeta.MeanIterDuration(nb-10, nb), "beta0_late_iter_s")
}

// Whole-cluster drop on vs off in the saturated-uplink scenario.
func BenchmarkAblation_ClusterDrop(b *testing.B) {
	var on, off *des.Result
	for i := 0; i < b.N; i++ {
		p1 := scenario4Params(expt.Adaptive)
		p2 := scenario4Params(expt.Adaptive)
		cfg := *p2.Adapt
		cfg.ClusterDropBWRatio = 0     // disable the bandwidth rule
		cfg.ClusterDropInterComm = 1.0 // and the overhead fallback
		p2.Adapt = &cfg
		var err error
		if on, err = des.Run(p1); err != nil {
			b.Fatal(err)
		}
		if off, err = des.Run(p2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(on.Runtime, "clusterdrop_runtime_s")
	b.ReportMetric(off.Runtime, "nodewise_runtime_s")
}

// Weighted vs unweighted efficiency with heterogeneous speeds
// (scenario 5's lightly loaded nodes).
func BenchmarkAblation_WeightedEfficiency(b *testing.B) {
	sc, _ := expt.ByID("5")
	var weighted, unweighted *des.Result
	for i := 0; i < b.N; i++ {
		p1 := sc.Build(expt.Adaptive, sc.Seed)
		p2 := sc.Build(expt.Adaptive, sc.Seed)
		cfg := *p2.Adapt
		cfg.UnweightedEfficiency = true
		p2.Adapt = &cfg
		var err error
		if weighted, err = des.Run(p1); err != nil {
			b.Fatal(err)
		}
		if unweighted, err = des.Run(p2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(weighted.Runtime, "weighted_runtime_s")
	b.ReportMetric(unweighted.Runtime, "unweighted_runtime_s")
	// The weighted metric's point is capacity valuation: the unweighted
	// engine overestimates slow nodes' contribution and holds more
	// capacity for the same work.
	b.ReportMetric(weighted.NodeSeconds, "weighted_node_seconds")
	b.ReportMetric(unweighted.NodeSeconds, "unweighted_node_seconds")
}

// Blacklisting on vs off with a persistently bad link when the bad
// cluster is the only spare capacity: without the blacklist the
// scheduler hands the bad nodes straight back and the coordinator
// oscillates between evicting and re-adding them.
func BenchmarkAblation_Blacklist(b *testing.B) {
	build := func(disable bool) des.Params {
		sc, _ := expt.ByID("4")
		p := sc.Build(expt.Adaptive, sc.Seed)
		// Shrink the grid to three clusters with no slack in the two
		// healthy ones, so replacements can only come from the
		// throttled cluster itself.
		p.Topo.Clusters = p.Topo.Clusters[:3]
		p.Topo.Clusters[0].Nodes = 12
		p.Topo.Clusters[1].Nodes = 12
		p.Topo.Clusters[2].Nodes = 24
		p.DisableBlacklist = disable
		return p
	}
	var on, off *des.Result
	for i := 0; i < b.N; i++ {
		var err error
		if on, err = des.Run(build(false)); err != nil {
			b.Fatal(err)
		}
		if off, err = des.Run(build(true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(on.Runtime, "blacklist_runtime_s")
	b.ReportMetric(off.Runtime, "noblacklist_runtime_s")
	// Oscillation indicator: how many times the no-blacklist run added
	// nodes after its first removal.
	adds := 0
	for _, pr := range off.Periods {
		if pr.Added > 0 {
			adds++
		}
	}
	b.ReportMetric(float64(adds), "noblacklist_add_rounds")
}

// ---- real runtime benches ----

func benchGrid(b *testing.B, clusters, nodes int) (*satin.Grid, *satin.Node) {
	b.Helper()
	var specs []satin.ClusterSpec
	for i := 0; i < clusters; i++ {
		specs = append(specs, satin.ClusterSpec{
			Name: satin.ClusterID(fmt.Sprintf("fs%d", i)), Nodes: nodes,
		})
	}
	g, err := satin.NewGrid(satin.GridConfig{Clusters: specs})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	for _, c := range specs {
		if _, err := g.StartNodes(c.Name, nodes); err != nil {
			b.Fatal(err)
		}
	}
	return g, g.Node(satin.NodeID("fs0/00"))
}

func BenchmarkSatinFibSingleNode(b *testing.B) {
	_, master := benchGrid(b, 1, 1)
	want := apps.FibLeaves(22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, err := master.Run(apps.Fib{N: 22, SeqCutoff: 14})
		if err != nil {
			b.Fatal(err)
		}
		if val.(int) != want {
			b.Fatalf("wrong result %v", val)
		}
	}
}

func BenchmarkSatinFibTwoClusters(b *testing.B) {
	_, master := benchGrid(b, 2, 4)
	want := apps.FibLeaves(22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, err := master.Run(apps.Fib{N: 22, SeqCutoff: 14})
		if err != nil {
			b.Fatal(err)
		}
		if val.(int) != want {
			b.Fatalf("wrong result %v", val)
		}
	}
}

func BenchmarkSatinBarnesHutStep(b *testing.B) {
	_, master := benchGrid(b, 2, 2)
	bodies := apps.Plummer(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Run(apps.BHForces{
			Bodies: bodies, Lo: 0, Hi: len(bodies), Theta: 0.5, Grain: 128,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro benches of the decision machinery ----

func synthStats(n int) []core.NodeStats {
	stats := make([]core.NodeStats, n)
	for i := range stats {
		stats[i] = core.NodeStats{
			Node:      core.NodeID(fmt.Sprintf("n%03d", i)),
			Cluster:   core.ClusterID(fmt.Sprintf("c%d", i%5)),
			Speed:     1 + float64(i%7),
			Idle:      0.3,
			IntraComm: 0.05,
			InterComm: float64(i%4) * 0.05,
		}
	}
	return stats
}

func BenchmarkWeightedAverageEfficiency(b *testing.B) {
	stats := synthStats(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.WeightedAverageEfficiency(stats)
	}
}

func BenchmarkRankNodes(b *testing.B) {
	stats := synthStats(200)
	w := core.DefaultBadnessWeights()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.RankNodes(stats, w)
	}
}

// Event throughput of the simulator kernel via a small full run.
func BenchmarkDESBaselineRun(b *testing.B) {
	sc, _ := expt.ByID("1")
	for i := 0; i < b.N; i++ {
		p := sc.Build(expt.NoAdapt, sc.Seed)
		p.Spec.Iterations = 10
		if _, err := des.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = time.Now // keep time import if benches above change
