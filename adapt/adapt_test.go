package adapt_test

import (
	"strings"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/satin"
)

func fastReg() registry.Options {
	return registry.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    100 * time.Millisecond,
	}
}

func newGrid(t *testing.T, period time.Duration, clusters ...satin.ClusterSpec) *satin.Grid {
	t.Helper()
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters:   clusters,
		Registry:   fastReg(),
		LANLatency: 50 * time.Microsecond,
		WANLatency: time.Millisecond,
		Node: satin.NodeConfig{
			Coordinator:       adapt.EndpointName,
			MonitorPeriod:     period,
			Bench:             apps.Fib{N: 16, SeqCutoff: 16},
			BenchWork:         float64(apps.FibLeaves(16)),
			BenchBudget:       0.05,
			LocalStealTimeout: 50 * time.Millisecond,
			WANStealTimeout:   300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// driveWork keeps the master busy with back-to-back parallel jobs
// until stop closes — an iterative application.
func driveWork(master *satin.Node, task satin.Task, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		fut := master.Submit(task)
		fut.Wait()
	}
}

func TestCoordinatorGrowsUnderHighEfficiency(t *testing.T) {
	period := 400 * time.Millisecond
	g := newGrid(t, period, satin.ClusterSpec{Name: "c0", Nodes: 6})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	master := nodes[0]
	coord, err := adapt.Start(g.Fabric(), g, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{master.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveWork(master, apps.Fib{N: 21, SeqCutoff: 10, LeafDelay: 2 * time.Millisecond}, stop)
	}()

	deadline := time.Now().Add(8 * time.Second)
	for g.NodeCount() < 3 {
		if time.Now().After(deadline) {
			for _, h := range coord.History() {
				t.Logf("WAE=%.3f nodes=%d action=%s (+%d -%d) %s",
					h.WAE, h.Nodes, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatalf("coordinator never grew the node set: %d nodes", g.NodeCount())
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	<-done
	grew := false
	for _, h := range coord.History() {
		if h.Action == "add" && h.Added > 0 {
			grew = true
		}
	}
	if !grew {
		t.Error("history records no add action")
	}
}

func TestCoordinatorShrinksWhenIdle(t *testing.T) {
	period := 400 * time.Millisecond
	g := newGrid(t, period, satin.ClusterSpec{Name: "c0", Nodes: 6})
	nodes, err := g.StartNodes("c0", 6)
	if err != nil {
		t.Fatal(err)
	}
	master := nodes[0]
	coord, err := adapt.Start(g.Fabric(), g, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{master.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	// Nearly no work: six nodes sit idle, WAE collapses, the
	// coordinator must release capacity.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fut := master.Submit(apps.Fib{N: 5, SeqCutoff: 10})
			fut.Wait()
			time.Sleep(20 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(8 * time.Second)
	for g.NodeCount() > 3 {
		if time.Now().After(deadline) {
			for _, h := range coord.History() {
				t.Logf("WAE=%.3f nodes=%d action=%s (+%d -%d)",
					h.WAE, h.Nodes, h.Action, h.Added, h.Removed)
			}
			t.Fatalf("coordinator never shrank an idle node set: %d nodes", g.NodeCount())
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	<-done
	// The removed nodes are blacklisted (the paper's conservative
	// policy) and the master survived.
	if master.Stopped() {
		t.Error("protected master was removed")
	}
	if len(coord.Requirements().BlacklistedNodes()) == 0 {
		t.Error("removed nodes were not blacklisted")
	}
}

func TestMonitorOnlyNeverActs(t *testing.T) {
	period := 300 * time.Millisecond
	g := newGrid(t, period, satin.ClusterSpec{Name: "c0", Nodes: 4})
	nodes, err := g.StartNodes("c0", 4)
	if err != nil {
		t.Fatal(err)
	}
	master := nodes[0]
	coord, err := adapt.Start(g.Fabric(), g, adapt.Config{
		Period:      period,
		MonitorOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	// A trickle of work keeps the measured WAE genuinely positive
	// (a fully idle grid's WAE is exactly zero), while the mostly-idle
	// node set is one an acting coordinator would shrink.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fut := master.Submit(apps.Fib{N: 12, SeqCutoff: 10})
			fut.Wait()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Wait for what the assertions below need, not for a fixed time: on
	// a loaded box (five packages under -race on two CPUs) two seconds
	// have passed without one period holding reports. Four periods, one
	// of them with a measured WAE, is several more than an acting
	// coordinator takes to shrink this node set.
	measured := func() bool {
		hist := coord.History()
		for _, h := range hist {
			if h.WAE > 0 {
				return len(hist) >= 4
			}
		}
		return false
	}
	for deadline := time.Now().Add(20 * time.Second); !measured() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	<-done
	if got := g.NodeCount(); got != 4 {
		t.Fatalf("monitor-only run changed the node set: %d nodes", got)
	}
	hist := coord.History()
	if len(hist) == 0 {
		t.Fatal("no periods recorded")
	}
	recorded := false
	for _, h := range hist {
		if h.WAE > 0 {
			recorded = true
		}
		if h.Added != 0 || h.Removed != 0 {
			t.Fatalf("monitor-only acted: %+v", h)
		}
	}
	if !recorded {
		t.Error("WAE never computed despite reports")
	}
}

func TestDefaultThresholdsMatchPaper(t *testing.T) {
	th := core.DefaultConfig()
	if th.EMin != 0.30 || th.EMax != 0.50 {
		t.Fatalf("thresholds = %+v, want EMin 0.30 EMax 0.50", th)
	}
	stats := []adapt.NodeStats{
		{Node: "a", Cluster: "c", Speed: 10, Idle: 0.5},
		{Node: "b", Cluster: "c", Speed: 5, Idle: 0.5},
	}
	wae := core.WeightedAverageEfficiency(stats)
	if wae <= 0 || wae >= 1 {
		t.Fatalf("WAE = %v", wae)
	}
}

// The §7 hierarchy: nodes report to per-cluster sub-coordinators,
// which summarize to the main coordinator. The main coordinator still
// decides on every node's statistics but handles O(clusters) messages
// per period instead of O(nodes).
func TestHierarchicalCoordinator(t *testing.T) {
	period := 300 * time.Millisecond
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters: []satin.ClusterSpec{{Name: "c0", Nodes: 4}, {Name: "c1", Nodes: 4}},
		Registry: fastReg(),
		Node: satin.NodeConfig{
			Coordinator:   adapt.EndpointName,
			MonitorPeriod: period,
			Bench:         apps.Fib{N: 14, SeqCutoff: 14},
			BenchWork:     float64(apps.FibLeaves(14)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	coord, err := adapt.Start(g.Fabric(), g, adapt.Config{
		Period:      period,
		MonitorOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	// The nodes come up after the coordinator: each cluster gets its
	// sub-coordinator when its first node joins the registry.
	for _, c := range []satin.ClusterID{"c0", "c1"} {
		if _, err := g.StartNodes(c, 4); err != nil {
			t.Fatal(err)
		}
	}

	// Run for several periods; the main coordinator must assemble a
	// full 8-node view out of cluster summaries.
	deadline := time.Now().Add(6 * time.Second)
	for {
		hist := coord.History()
		// The decision detail names how many node reports the engine
		// saw: "on 8 nodes" proves every report crossed the hierarchy.
		if len(hist) >= 3 &&
			strings.Contains(hist[len(hist)-1].Detail, "on 8 nodes") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("main coordinator never assembled the hierarchical view: %+v", hist)
		}
		time.Sleep(50 * time.Millisecond)
	}
	periods := len(coord.History())
	msgs := coord.MessagesReceived()
	// Flat reporting would deliver ~8 messages per period; summaries
	// cap it at ~2 (one per sub-coordinator).
	if msgs > periods*4 {
		t.Errorf("main coordinator handled %d messages over %d periods — summarizing not effective", msgs, periods)
	}
	t.Logf("periods=%d messages=%d (flat would be ~%d)", periods, msgs, periods*8)
}
