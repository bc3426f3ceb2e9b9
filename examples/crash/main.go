// The paper's crashing-nodes scenario on the REAL runtime: a cluster
// dies abruptly mid-computation; Satin-style fault tolerance recomputes
// the orphaned jobs, and the adaptation coordinator replaces the lost
// capacity from the surviving sites.
//
//	go run ./examples/crash
package main

import (
	"fmt"
	"log"
	"time"

	"repro/adapt"
	"repro/internal/apps"
	"repro/internal/registry"
	"repro/satin"
)

func main() {
	period := 500 * time.Millisecond
	fast := registry.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		FailureTimeout:    250 * time.Millisecond,
	}
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters: []satin.ClusterSpec{
			{Name: "fs0", Nodes: 4},
			{Name: "fs1", Nodes: 4},
			{Name: "fs2", Nodes: 8}, // spare capacity for replacements
		},
		Registry: fast,
		Node: satin.NodeConfig{
			Coordinator:   adapt.EndpointName,
			MonitorPeriod: period,
			Bench:         apps.Fib{N: 17, SeqCutoff: 17},
			BenchWork:     float64(apps.FibLeaves(17)),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	for _, c := range []satin.ClusterID{"fs0", "fs1"} {
		if _, err := g.StartNodes(c, 4); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := g.StartNodes("fs2", 4); err != nil {
		log.Fatal(err)
	}
	master := g.Node("fs0/00")

	coord, err := adapt.Start(g.Fabric(), g, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{master.ID()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Stop()

	fmt.Println("12 nodes / 3 clusters; cluster fs1 crashes at t=2s")
	time.AfterFunc(2*time.Second, func() {
		killed := g.CrashCluster("fs1")
		fmt.Printf("  !! crashed %d nodes of fs1\n", killed)
	})

	deadline := time.After(8 * time.Second)
	iter := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		default:
		}
		start := time.Now()
		val, err := master.Run(apps.Fib{N: 22, SeqCutoff: 12, LeafDelay: 5 * time.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		if val.(int) != apps.FibLeaves(22) {
			log.Fatalf("wrong answer after crash: %v (work was lost!)", val)
		}
		iter++
		fmt.Printf("  iteration %2d: %7v  (%d nodes) result ok\n",
			iter, time.Since(start).Round(time.Millisecond), g.NodeCount())
	}
	fmt.Println("\ncoordinator history:")
	for _, h := range coord.History() {
		fmt.Printf("  WAE=%.3f nodes=%2d action=%-12s +%d -%d\n",
			h.WAE, h.Nodes, h.Action, h.Added, h.Removed)
	}
	fmt.Printf("final node count: %d (every iteration returned the exact answer)\n", g.NodeCount())
}
