package satin

import (
	"testing"
	"time"
)

// The ISSUE 7 spawn-sync ceiling: one task spawning and syncing 256
// trivial children must stay under 300 allocations (BENCH_5 measured
// 986 before the value pending-map, pooled futures, Context free list
// and deque node recycling). A run measures 9: the root's boxed task
// and result, its future, channel and job record, and the four 64-slot
// blocks past the 60 slots a pooled Context keeps (8 with a 64-future
// slab, which took four blocks a run). The ceiling is far above that so
// background goroutines (heartbeats, the registry) cannot flake it,
// while still catching a regression back to per-spawn boxing;
// TestSpawnAllocBudget holds the bytes.
//
// The two-node variant holds the idle path to the same ceiling: after
// the same warm-up, one measured run is the pair making sixteen local
// steal attempts, each failing and followed by a park. The worker
// reuses one reply channel and one timer for all of them, so a run
// allocates the request and reply frames and their handlers, about 250;
// a waiter channel per attempt and a time.After per attempt and per
// park add 7 an attempt and put the run at 370. (The spawn-sync task
// is left out of the two-node run: what thieves take from under it
// varies the count between 273 and 533.)
func TestSpawnSyncAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("live node benchmark-style test")
	}
	for _, tc := range []struct {
		name  string
		nodes int
	}{{"one node", 1}, {"two nodes", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGrid(GridConfig{
				Clusters: []ClusterSpec{{Name: "c0", Nodes: tc.nodes}},
				Registry: fastReg(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			nodes, err := g.StartNodes("c0", tc.nodes)
			if err != nil {
				t.Fatal(err)
			}
			spawnSync := func() {
				if _, err := nodes[0].Run(tspawnN{N: 256}); err != nil {
					t.Fatal(err)
				}
			}
			attempts := func() (sum int64) {
				for _, n := range nodes {
					sum += n.StealStats().SyncLocal
				}
				return sum
			}
			run := spawnSync
			if tc.nodes > 1 {
				run = func() {
					for until := attempts() + 16; attempts() < until; {
						time.Sleep(200 * time.Microsecond)
					}
				}
			}
			for i := 0; i < 3; i++ { // warm every pool past its first burst
				spawnSync()
				run()
			}
			time.Sleep(10 * time.Millisecond)
			allocs := testing.AllocsPerRun(20, run)
			t.Logf("%.0f allocations per run", allocs)
			if allocs >= 300 {
				t.Fatalf("%s: %.0f allocations per run, ceiling 300", tc.name, allocs)
			}
		})
	}
}
