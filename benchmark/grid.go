package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/satin"
)

// gridSpec describes a workload that runs one divide-and-conquer task
// repeatedly on a live satin.Grid.
type gridSpec struct {
	task       apps.Fib
	clusters   int
	perCluster int
	// baselineShare of the run length goes to the same task on one
	// node: scaling_efficiency needs the one-node time.
	baselineShare float64
}

func gridSpecFor(cfg runConfig) gridSpec {
	switch {
	case cfg.workload == wSpawnTree && cfg.smoke:
		return gridSpec{task: apps.Fib{N: 22, SeqCutoff: 12}, clusters: 1, perCluster: 2, baselineShare: 0.25}
	case cfg.workload == wSpawnTree:
		// 35,421 tasks per op and no leaf delay: spawn/sync, the deque
		// and context/future pooling do nearly all the work.
		return gridSpec{task: apps.Fib{N: 32, SeqCutoff: 12}, clusters: 1, perCluster: 2, baselineShare: 0.25}
	case cfg.smoke:
		return gridSpec{task: apps.Fib{N: 16, SeqCutoff: 12, LeafDelay: time.Millisecond}, clusters: 2, perCluster: 2, baselineShare: 0.25}
	default:
		// 233 sleeping leaves: the cores idle, and what is timed is
		// victim choice, steal round trips, framing and the fabric
		// across the emulated 200 us LAN / 5 ms WAN.
		return gridSpec{task: apps.Fib{N: 23, SeqCutoff: 12, LeafDelay: 2 * time.Millisecond}, clusters: 2, perCluster: 2, baselineShare: 0.10}
	}
}

// liveGrid is a started grid and the node ops are submitted to.
type liveGrid struct {
	grid   *satin.Grid
	master *satin.Node
}

func clusterName(i int) satin.ClusterID { return satin.ClusterID(fmt.Sprintf("c%d", i)) }

// startGrid builds a grid, starts its nodes and runs one warm-up op
// so that every node knows the membership before anything is timed.
func startGrid(spec gridSpec, clusters, perCluster int, seed int64, tr *tracer) (*liveGrid, error) {
	sp := tr.begin("grid.start", 0, 0)
	defer tr.end(sp)
	var cs []satin.ClusterSpec
	for i := 0; i < clusters; i++ {
		cs = append(cs, satin.ClusterSpec{Name: clusterName(i), Nodes: perCluster})
	}
	g, err := satin.NewGrid(satin.GridConfig{Clusters: cs, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if _, err := g.StartNodes(c.Name, c.Nodes); err != nil {
			g.Close()
			return nil, err
		}
	}
	lg := &liveGrid{grid: g, master: g.Node(satin.NodeID(clusterName(0) + "/00"))}
	if lg.master == nil {
		g.Close()
		return nil, fmt.Errorf("grid has no node %s/00", clusterName(0))
	}
	if v, err := lg.master.Run(spec.task); err != nil || v != apps.FibLeaves(spec.task.N) {
		g.Close()
		return nil, fmt.Errorf("warm-up op: value %v, error %v", v, err)
	}
	return lg, nil
}

func (lg *liveGrid) close(tr *tracer) {
	sp := tr.begin("grid.close", 0, 0)
	lg.grid.Close()
	tr.end(sp)
}

// op runs the task once from the master and checks the leaf count.
func (lg *liveGrid) op(cfg runConfig, spec gridSpec) opFunc {
	want := apps.FibLeaves(spec.task.N)
	return func(_, i int, ot opTrace) (string, bool) {
		sp := ot.begin("node.run")
		v, err := lg.master.Run(spec.task)
		ot.end(sp)
		expect := want
		if cfg.expectWrong(i) {
			expect = want + 1
		}
		return "op", err == nil && v == expect
	}
}

func runGrid(cfg runConfig, r *report, tr *tracer) error {
	spec := gridSpecFor(cfg)
	nodes := spec.clusters * spec.perCluster

	// Set-up, repeated: start the measured grid and run the warm-up op.
	// An idle node spins, so each grid is closed before the next starts.
	var setup []float64
	for i := 1; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		lg, err := startGrid(spec, spec.clusters, spec.perCluster, cfg.seed, tr)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		lg.close(tr)
	}

	// One-node baseline of the same task.
	base, err := startGrid(spec, 1, 1, cfg.seed, nil)
	if err != nil {
		return err
	}
	baseDur := time.Duration(float64(cfg.seconds) * spec.baselineShare)
	basePhase := timedPhase(baseDur, 1, nil, base.op(runConfig{}, spec))
	base.close(nil)
	if basePhase.failed > 0 {
		return fmt.Errorf("one-node baseline: %d of %d ops failed", basePhase.failed, basePhase.attempted)
	}

	t0 := time.Now()
	lg, err := startGrid(spec, spec.clusters, spec.perCluster, cfg.seed, tr)
	if err != nil {
		return err
	}
	setup = append(setup, time.Since(t0).Seconds())

	live := lg.grid.Nodes()
	readNodes(live) // open a fresh statistics period on every node
	p := timedPhase(cfg.seconds-baseDur, 1, tr, lg.op(cfg, spec))
	counts := readNodes(live)
	lg.close(tr)

	reportCommon(r, cfg, p, setup, "op")
	r.tasksPerOp = fibTasks(spec.task.N, spec.task.SeqCutoff)
	lat := p.lat("op")
	if len(lat) > 0 {
		r.set("scaling_efficiency", median(basePhase.lat("op"))/(float64(nodes)*median(lat)), len(lat))
	}
	if cfg.trace {
		total := counts.busy + counts.idle + counts.intra + counts.inter
		if total > 0 {
			r.set("satin.busy_share", counts.busy/total, 0)
			r.set("satin.idle_share", counts.idle/total, 0)
			r.set("satin.intra_share", counts.intra/total, 0)
			r.set("satin.inter_share", counts.inter/total, 0)
		}
		reportRegistryCounts(r, p)
	}
	return nil
}
