package satin

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport/wire"
)

// TestLoadStretchSurvivesSnapshots is the regression test for the
// accounting race where enterState computed the load stretch from the
// fold origin (stateSince) that a concurrent snapshot() advances: on a
// frequently-monitored node the stretch shrank to (time since last
// report) and the emulated competing load silently vanished — the
// saved wall time leaked into idle. The stretch must derive from the
// true state entry time, which snapshots never touch.
func TestLoadStretchSurvivesSnapshots(t *testing.T) {
	var s statsTracker
	s.init(&NodeConfig{ID: "n0", Cluster: "c0"})
	s.setLoad(4)

	const work = 40 * time.Millisecond

	// A monitoring loop snapshotting every 5ms — far more often than
	// the paper's period, to make the race deterministic in effect.
	var mu sync.Mutex
	var busy float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rep := s.snapshot()
				mu.Lock()
				busy += rep.BusySec
				mu.Unlock()
			}
		}
	}()

	s.enterState(int(metrics.Busy))
	time.Sleep(work) // the "task"
	s.enterState(stateIdle)

	close(stop)
	wg.Wait()
	rep := s.snapshot()
	busy += rep.BusySec

	// With load 4 the 40ms of work must be stretched to ~200ms of
	// accounted busy time. The racy code accounted ~40ms work plus a
	// stretch of only ~(snapshot interval)*4 ≈ 20ms, i.e. ~60-70ms
	// total. 140ms separates the two regimes with a wide margin for
	// scheduler jitter.
	want := 0.140
	if busy < want {
		t.Fatalf("accounted busy %.3fs, want >= %.3fs: load stretch was lost to concurrent snapshots", busy, want)
	}
}

// TestGridEpochPerGrid is the regression test for the process-wide
// report clock: every grid in a process shared one package-level
// startTime, so a grid created later reported periods whose bounds
// started at the age of the process, not the age of the grid — and two
// grids' timelines could never be compared. Each grid must stamp its
// own epoch.
func TestGridEpochPerGrid(t *testing.T) {
	gridA, err := NewGrid(GridConfig{
		Clusters: []ClusterSpec{{Name: "a0", Nodes: 1}},
		Registry: fastReg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gridA.Close()
	if _, err := gridA.StartNodes("a0", 1); err != nil {
		t.Fatal(err)
	}

	// Age the process past the threshold before the second grid exists.
	time.Sleep(250 * time.Millisecond)

	gridB, err := NewGrid(GridConfig{
		Clusters: []ClusterSpec{{Name: "b0", Nodes: 1}},
		Registry: fastReg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gridB.Close()
	nodes, err := gridB.StartNodes("b0", 1)
	if err != nil {
		t.Fatal(err)
	}

	rep := nodes[0].Report()
	// On grid B's own timeline its first report ends moments after 0.
	// On the shared process clock it would end at >= 0.25.
	if rep.End >= 0.2 {
		t.Fatalf("first report of a fresh grid ends at t=%.3fs: node clock is process-wide, not per grid", rep.End)
	}
}

// TestReportSendFailureCounted pins down that a node whose statistics
// reports cannot reach the coordinator says so: the satin/report_err
// counter moves (and the loop keeps running instead of silently
// dropping every period on the floor).
func TestReportSendFailureCounted(t *testing.T) {
	before := obs.Default.Counter("satin/report_err").Value()
	g, err := NewGrid(GridConfig{
		Clusters: []ClusterSpec{{Name: "c0", Nodes: 1}},
		Registry: fastReg(),
		Node: NodeConfig{
			Coordinator:   "no-such-endpoint",
			MonitorPeriod: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.StartNodes("c0", 1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if obs.Default.Counter("satin/report_err").Value() > before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("satin/report_err never moved: failed coordinator sends are dropped silently")
}

// runNested mimics executeJob under Sync on a bare tracker: every task
// enters Busy, runs its two children (or the leaf) and restores the
// state it found.
func runNested(s *statsTracker, depth int, leaf func()) {
	prev := s.state()
	s.enterState(int(metrics.Busy))
	if depth == 0 {
		leaf()
	} else {
		runNested(s, depth-1, leaf)
		runNested(s, depth-1, leaf)
	}
	s.enterState(prev)
}

// TestNestedExecutionAccounting pins what the free same-state
// transition may and may not change. Unloaded, a tree of nested tasks
// is one Busy interval: its total equals the wall time between the
// outermost transitions, and nothing inside the tree folds a bucket or
// reads the clock (the fold origins, which every clock reading
// advances, stay put). Loaded, every task is still stretched by
// itself.
func TestNestedExecutionAccounting(t *testing.T) {
	var s statsTracker
	s.init(&NodeConfig{ID: "n0", Cluster: "c0"})
	s.snapshot() // open a period

	outer := time.Now()
	var inside time.Duration
	runNested(&s, 3, func() {
		t0 := time.Now()
		for time.Since(t0) < 2*time.Millisecond {
		}
		inside += time.Since(t0)
	})
	wall := time.Since(outer)
	if got := s.state(); got != stateIdle {
		t.Fatalf("state after the tree = %d, want idle", got)
	}
	rep := s.snapshot()
	busy := time.Duration(rep.BusySec * float64(time.Second))
	if busy < inside || busy > wall {
		t.Errorf("busy %v, want between the eight leaves' own %v and the tree's wall time %v", busy, inside, wall)
	}

	// The transitions inside the tree are free: same fold origins before
	// and after a nested task.
	s.enterState(int(metrics.Busy))
	since, entered := s.stateSince, s.stateEntered
	runNested(&s, 2, func() {})
	if s.stateSince != since || s.stateEntered != entered {
		t.Error("a nested Busy-in-Busy task read the clock on an unloaded node")
	}
	s.enterState(stateIdle)
	s.snapshot()

	// Loaded: four 5ms leaves at load 1 account for at least 40ms, and
	// each leaf is stretched on its own (the tree takes that long too).
	s.setLoad(1)
	outer = time.Now()
	runNested(&s, 2, func() { time.Sleep(5 * time.Millisecond) })
	wall = time.Since(outer)
	rep = s.snapshot()
	if rep.BusySec < 0.040 || wall < 40*time.Millisecond {
		t.Errorf("loaded tree: busy %.3fs over %v wall, want >= 0.040s each (4 leaves x 5ms x (1+load))", rep.BusySec, wall)
	}
}

// TestLoadSetMidStateStretchesFromThen: an unloaded worker's state
// entry time is not advanced by same-state transitions, so a load that
// arrives late must not stretch the whole unloaded past.
func TestLoadSetMidStateStretchesFromThen(t *testing.T) {
	var s statsTracker
	s.init(&NodeConfig{ID: "n0", Cluster: "c0"})
	s.enterState(int(metrics.Busy))
	time.Sleep(60 * time.Millisecond) // unloaded work
	s.setLoad(1)
	t0 := time.Now()
	s.enterState(stateIdle)
	if d := time.Since(t0); d > 30*time.Millisecond {
		t.Fatalf("leaving Busy slept %v: the load stretched work done before it was set", d)
	}
}

// TestCountInterBytes: whether a received frame crossed the WAN is read
// off the sender's endpoint name by topo.ClusterOf alone — no membership
// lookup. A frame from another cluster's node or sub-coordinator counts;
// one from the node's own cluster, or from infrastructure that sits in no
// cluster, does not.
func TestCountInterBytes(t *testing.T) {
	n := &Node{cfg: NodeConfig{ID: "fs0/00", Cluster: "fs0"}}
	n.stats.init(&n.cfg)
	for _, tc := range []struct {
		from string
		want float64 // bytes booked out of a 100-byte frame
	}{
		{"satin:fs1/02", 100},
		{"coordinator:fs1/sub", 100},
		{"satin:fs0/01", 0},
		{"satin:fs0/00", 0},
		{"registry", 0},
		{"coordinator", 0},
	} {
		n.countInterBytes(wire.Meta{From: tc.from, Bytes: 100})
		// One second of inter-cluster time turns the period's byte count
		// into the report's bandwidth; the snapshot starts a new period.
		n.stats.acc.Add(metrics.Inter, 1)
		if got := n.Report().InterBandwidth; got != tc.want {
			t.Errorf("frame from %q: booked %v inter-cluster bytes, want %v", tc.from, got, tc.want)
		}
	}
}
