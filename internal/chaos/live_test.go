package chaos

import (
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/satin"
)

func fastReg() registry.Options {
	return registry.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    100 * time.Millisecond,
	}
}

// chaosGrid builds a two-cluster live deployment whose entire traffic
// — steals, reports, heartbeats — runs through a FaultTransport seeded
// from one value.
func chaosGrid(t *testing.T, seed int64, period time.Duration) (*satin.Grid, *FaultTransport) {
	t.Helper()
	var ft *FaultTransport
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters: []satin.ClusterSpec{
			{Name: "lc0", Nodes: 3},
			{Name: "lc1", Nodes: 4},
		},
		Registry:   fastReg(),
		LANLatency: 50 * time.Microsecond,
		WANLatency: time.Millisecond,
		Seed:       seed,
		WrapFabric: func(inner transport.Fabric) transport.Fabric {
			ft = NewFaultTransport(inner, seed)
			return ft
		},
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
	t.Cleanup(func() {
		g.Close()
		ft.Close()
	})
	return g, ft
}

// census snapshots the live node count per cluster.
func census(g *satin.Grid) map[core.ClusterID]int {
	per := make(map[core.ClusterID]int)
	for _, n := range g.Nodes() {
		per[core.ClusterID(n.Cluster())]++
	}
	return per
}

// The live half of the cross-runtime invariant requirement: the same
// Check() that audits the DES corpus runs over the real runtime's
// coord.PeriodRecord log, while the real transport is lossy, jittery
// and duplicating AND a cluster gets overloaded mid-run. The
// coordinator must keep its blacklists monotone, ground every action
// in fresh statistics, and bring WAE back into the healthy band after
// the disturbance clears.
func TestChaosLiveInvariants(t *testing.T) {
	const seed = 7
	period := 300 * time.Millisecond
	baseDup := obs.Default.Total("wire/dup/")
	g, ft := chaosGrid(t, seed, period)
	masters, err := g.StartNodes("lc0", 1)
	if err != nil {
		t.Fatal(err)
	}
	master := masters[0]
	if _, err := g.StartNodes("lc1", 2); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
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
		for {
			select {
			case <-stop:
				return
			default:
			}
			master.Submit(apps.Fib{N: 21, SeqCutoff: 10, LeafDelay: 2 * time.Millisecond}).Wait()
		}
	}()
	defer func() { close(stop); <-done }()

	// Chaos phase: the WAN delays, jitters and duplicates frames (each
	// pair's frames still in send order, as on any fabric), and lc1
	// gets buried under competing load. No
	// probabilistic drop on the work protocol: the runtime's transport
	// contract is a stream — loss shows up as a connection/node
	// failure, which the partition and crash tests cover.
	ft.FaultBothWays("lc1", Faults{Delay: 2 * time.Millisecond,
		Jitter: 10 * time.Millisecond, Duplicate: 0.1})
	time.Sleep(3 * period)
	g.SetClusterLoad("lc1", 8)
	time.Sleep(4 * period)

	// Disturbance clears; from here the loop must recover.
	g.SetClusterLoad("lc1", 0)
	ft.ClearFaults()
	disturbEnd := time.Since(t0).Seconds()

	// Sample the unified period log until recovery shows (or time runs
	// out — then Check reports the recovery violation with the seed).
	var samples []Observation
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		hist := coord.History()
		for len(samples) < len(hist) {
			samples = append(samples, NewObservation(hist[len(samples)], coord.Requirements(), census(g)))
		}
		if n := len(samples); n > 0 {
			r := samples[n-1].Record
			if r.Time > disturbEnd && r.Stats > 0 && r.WAE >= 0.30 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	if len(samples) < 4 {
		t.Fatalf("seed %d: only %d coordinator ticks observed", seed, len(samples))
	}
	for _, v := range Check(samples, CheckConfig{
		EMin: 0.30, EMax: 0.50,
		DisturbEnd:      disturbEnd,
		RequireRecovery: true,
	}) {
		t.Errorf("seed %d (live): %s", seed, v)
	}
	if master.Stopped() {
		t.Errorf("seed %d: protected master was removed", seed)
	}
	if st := ft.Stats(); st.Dropped == 0 && st.Delayed == 0 {
		t.Errorf("seed %d: fault transport injected nothing (stats %+v)", seed, st)
	}
	// Injected duplicates must be accounted by the wire layer, not
	// silently re-delivered or dropped.
	if st := ft.Stats(); st.Duplicated > 0 && obs.Default.Total("wire/dup/") == baseDup {
		t.Errorf("seed %d: %d duplicated frames invisible in obs wire/dup counters",
			seed, st.Duplicated)
	}
}

// A partitioned cluster must look dead to the rest of the grid: the
// registry declares its nodes failed, the coordinator's live set
// shrinks, and the computation keeps completing on the surviving side.
func TestChaosLivePartitionIsolates(t *testing.T) {
	const seed = 11
	period := 300 * time.Millisecond
	g, ft := chaosGrid(t, seed, period)
	masters, err := g.StartNodes("lc0", 2)
	if err != nil {
		t.Fatal(err)
	}
	master := masters[0]
	if _, err := g.StartNodes("lc1", 2); err != nil {
		t.Fatal(err)
	}

	ft.Partition("lc1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		members := g.Registry().Members()
		gone := true
		for _, m := range members {
			if m.Cluster == "lc1" {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: partitioned cluster still in the registry after %v: %v",
				seed, 10*time.Second, members)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The surviving side still computes — and correctly.
	val, err := master.Run(apps.Fib{N: 18, SeqCutoff: 10})
	if err != nil {
		t.Fatalf("seed %d: computation failed under partition: %v", seed, err)
	}
	if want := apps.FibLeaves(18); val.(int) != want {
		t.Fatalf("seed %d: wrong result under partition: got %v want %d", seed, val, want)
	}
}
