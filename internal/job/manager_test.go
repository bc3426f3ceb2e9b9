package job

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/satin"
)

func fastReg() registry.Options {
	return registry.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    100 * time.Millisecond,
	}
}

func testManager(t *testing.T, clusters, nodes int, tune func(*Config)) *Manager {
	t.Helper()
	cfg := testConfig(clusters, nodes)
	if tune != nil {
		tune(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// testConfig is a service of clusters×nodes on fast links and fast
// heartbeats.
func testConfig(clusters, nodes int) Config {
	var specs []satin.ClusterSpec
	for i := 0; i < clusters; i++ {
		specs = append(specs, satin.ClusterSpec{
			Name: satin.ClusterID(fmt.Sprintf("fs%d", i)), Nodes: nodes,
		})
	}
	return Config{
		Clusters:          specs,
		LANLatency:        50 * time.Microsecond,
		WANLatency:        time.Millisecond,
		Registry:          fastReg(),
		Period:            100 * time.Millisecond,
		ProvisionPatience: 300 * time.Millisecond,
		Node: satin.NodeConfig{
			LocalStealTimeout: 100 * time.Millisecond,
			WANStealTimeout:   500 * time.Millisecond,
		},
	}
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	timer := time.NewTimer(timeout) // stopped, not left to fire: see Ctl.call
	defer timer.Stop()
	select {
	case <-j.Done():
	case <-timer.C:
		t.Fatalf("%s still %s after %v", j.ID, j.State(), timeout)
	}
}

func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s is %s, want %s after %v", j.ID, j.State(), want, timeout)
}

// TestConcurrentJobsShareOnePool is the service's core promise: four
// jobs run concurrently over one shared node pool, every one completes
// with a verified result, and per-job observability stays separate.
func TestConcurrentJobsShareOnePool(t *testing.T) {
	m := testManager(t, 2, 2, nil) // capacity 4, one node per job
	// Each job runs for about 12 ms, so the overlap checked below is wide.
	const n, iters = 4, 4
	jobs := make([]*Job, n)
	before := make([]uint64, n)
	for i := range jobs {
		j, err := m.Submit(Spec{App: "fib", Size: 12, Iters: iters, MinNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		before[i] = obs.Default.Counter("job/" + j.ID + "/iterations").Value()
	}
	for i, j := range jobs {
		waitTerminal(t, j, 30*time.Second)
		if j.State() != Done {
			t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Result().Err)
		}
		r := j.Result()
		if r.Check != "ok" {
			t.Fatalf("%s: check %q", j.ID, r.Check)
		}
		if len(r.Iterations) != iters {
			t.Fatalf("%s: %d iterations recorded, want %d", j.ID, len(r.Iterations), iters)
		}
		// Per-job counters must not cross-contaminate: each job's series
		// advanced by exactly its own iterations.
		got := obs.Default.Counter("job/"+j.ID+"/iterations").Value() - before[i]
		if got != iters {
			t.Fatalf("%s: per-job iteration counter advanced by %d, want %d", j.ID, got, iters)
		}
	}
	// All four must be admitted together (MaxActive 8, 4 × MinNodes 1
	// fits capacity 4) — genuinely concurrent, not serialized: the last
	// to enter Running did so before the first one finished.
	var lastStart, firstEnd time.Time
	for _, j := range jobs {
		start, end := j.runSpan()
		if start.After(lastStart) {
			lastStart = start
		}
		if firstEnd.IsZero() || end.Before(firstEnd) {
			firstEnd = end
		}
	}
	if !lastStart.Before(firstEnd) {
		for _, j := range jobs {
			start, end := j.runSpan()
			t.Logf("%s ran %v–%v", j.ID, start.Format(time.StampMicro), end.Format(time.StampMicro))
		}
		t.Fatalf("the %d jobs did not all run at once", n)
	}
}

// TestAdaptiveJobCoordinatorKeepsRegistrySession: a job's coordinator
// must heartbeat at the pace of the job's registry server, like the
// job's nodes (both adopt it from the join ack). On the defaults
// (200 ms) the 100 ms failure timeout of these tests declared it dead
// right after it joined, and a dead member gets no more membership
// events: the tree's view of the grid froze.
func TestAdaptiveJobCoordinatorKeepsRegistrySession(t *testing.T) {
	m := testManager(t, 2, 2, nil)
	j, err := m.Submit(Spec{App: "fib", Size: 16, Iters: 400, MinNodes: 2, Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Cancel()
	waitState(t, j, Running, 10*time.Second)
	j.mu.Lock()
	g := j.grid
	j.mu.Unlock()
	isMember := func() bool {
		for _, mem := range g.Registry().Members() {
			if mem.ID == adapt.EndpointName {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !isMember() { // Running is set just before the coordinator joins
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never joined the job's registry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for waited := time.Duration(0); waited < 5*fastReg().FailureTimeout; waited += 10 * time.Millisecond {
		if j.State() != Running {
			t.Fatalf("job %s before the coordinator could be watched", j.State())
		}
		if !isMember() {
			t.Fatalf("the registry declared the job's coordinator dead after %v", waited)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOnlyAdaptiveJobsBenchmark: a node's speed has one reader, the
// job's coordinator, so the nodes of a job without one never run the
// speed benchmark, and those of an adaptive job measure their speed.
func TestOnlyAdaptiveJobsBenchmark(t *testing.T) {
	m := testManager(t, 1, 2, nil)
	for _, adaptive := range []bool{false, true} {
		j, err := m.Submit(Spec{App: "fib", Size: 14, Iters: 4, MinNodes: 2, Adapt: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 30*time.Second)
		if j.State() != Done {
			t.Fatalf("adapt=%v: job %s: %s", adaptive, j.State(), j.Result().Err)
		}
		reports := j.Result().NodeReports
		if len(reports) == 0 {
			t.Fatalf("adapt=%v: no node reports", adaptive)
		}
		for _, r := range reports {
			if !adaptive && (r.BenchSec != 0 || r.Speed != 0) {
				t.Errorf("non-adaptive node %s benchmarked: bench=%gs speed=%g", r.Node, r.BenchSec, r.Speed)
			}
			if adaptive && r.Speed <= 0 {
				t.Errorf("adaptive node %s reports speed %g", r.Node, r.Speed)
			}
		}
	}
}

// TestCancelFreesNodesForQueued is the acceptance scenario: cancelling
// a running job returns its nodes to the shared pool, and a queued job
// claims them.
func TestCancelFreesNodesForQueued(t *testing.T) {
	m := testManager(t, 1, 2, nil) // capacity 2
	// hog needs both nodes and would run for ~40s if never cancelled
	// (fib 24 is ~233 cutoff tasks of 3ms per iteration).
	hog, err := m.Submit(Spec{App: "fib", Size: 24, Iters: 60, MinNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hog, Running, 10*time.Second)
	// queued also needs both nodes: admission holds it back (2+2 > 2).
	queued, err := m.Submit(Spec{App: "fib", Size: 10, MinNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if s := queued.State(); s != Queued {
		t.Fatalf("second job should be queued behind the hog, is %s", s)
	}
	if err := m.Cancel(hog.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, hog, 10*time.Second)
	if hog.State() != Cancelled {
		t.Fatalf("hog: state %s, want cancelled", hog.State())
	}
	// The freed nodes must let the queued job run to completion.
	waitTerminal(t, queued, 30*time.Second)
	if queued.State() != Done || queued.Result().Check != "ok" {
		t.Fatalf("queued job after cancel: state %s, check %q, err %q",
			queued.State(), queued.Result().Check, queued.Result().Err)
	}
}

// TestNoStarvation: more demand than the grid can hold at once — every
// job still finishes; nobody waits forever while others get nodes.
func TestNoStarvation(t *testing.T) {
	m := testManager(t, 1, 4, nil) // capacity 4
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Spec{App: "fib", Size: 11, MinNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitTerminal(t, j, 60*time.Second)
		if j.State() != Done {
			t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Result().Err)
		}
	}
}

// lockedBuffer lets the test read what concurrent job goroutines log.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// TestJobSeedFixedAtSubmit: "job n runs with seed+n" holds for the
// submission index, whenever the job is admitted. Three jobs submitted
// back to back against MaxActive 1 start one after another; the seeds
// their grids log on startup must be Seed+1, Seed+2, Seed+3 in that
// order. Read at admission instead, the index was however many jobs had
// been submitted by then: the queued ones shared a seed.
func TestJobSeedFixedAtSubmit(t *testing.T) {
	var logged lockedBuffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	m := testManager(t, 1, 2, func(c *Config) { c.MaxActive = 1; c.Seed = 1000 })
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{App: "fib", Size: 10})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitTerminal(t, j, 30*time.Second)
		if j.State() != Done {
			t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Result().Err)
		}
	}
	logged.mu.Lock()
	defer logged.mu.Unlock()
	var ran []string
	for _, line := range strings.Split(logged.b.String(), "\n") {
		if _, after, ok := strings.Cut(line, "grid seed="); ok {
			ran = append(ran, strings.Fields(after)[0])
		}
	}
	if got, want := strings.Join(ran, " "), "1001 1002 1003"; got != want {
		t.Fatalf("grids ran with seeds [%s], want [%s]", got, want)
	}
}

// TestSubmitValidation: malformed specs are rejected at the door, not
// silently ignored.
func TestSubmitValidation(t *testing.T) {
	m := testManager(t, 1, 2, nil)
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"unknown app", Spec{App: "sort", Size: 10}},
		{"zero size", Spec{App: "fib", Size: 0}},
		{"tsp above its bound", Spec{App: "tsp", Size: 1_000_000}},
		{"min above capacity", Spec{App: "fib", Size: 10, MinNodes: 99}},
		{"max below min", Spec{App: "fib", Size: 10, MinNodes: 2, MaxNodes: 1}},
		{"bad shape cluster", Spec{App: "fib", Size: 10, Shape: map[string]float64{"nope": 5000}}},
		{"bad load value", Spec{App: "fib", Size: 10, Load: map[string]float64{"fs0": -1}}},
		// Accepted, this one's nodes panic in their report ticker and
		// take the process down with every job in it.
		{"negative period", Spec{App: "fib", Size: 10, Adapt: true, Period: -time.Second}},
		{"NaN load", Spec{App: "fib", Size: 10, Load: map[string]float64{"fs0": math.NaN()}}},
	} {
		if j, err := m.Submit(tc.spec); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			waitTerminal(t, j, 10*time.Second) // and see what running it does
		}
	}
	if m2, err := NewManager(Config{Clusters: m.cfg.Clusters, Period: -time.Second}); err == nil {
		m2.Close()
		t.Error("manager with a negative monitoring period accepted")
	}
}

// TestDrainCancelsQueuedFinishesRunning: the SIGTERM path.
func TestDrainCancelsQueuedFinishesRunning(t *testing.T) {
	m := testManager(t, 1, 2, nil)
	running, err := m.Submit(Spec{App: "fib", Size: 24, Iters: 3, MinNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running, 10*time.Second)
	queued, err := m.Submit(Spec{App: "fib", Size: 10, MinNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Drain(30 * time.Second)
	if running.State() != Done {
		t.Fatalf("running job should finish during drain, is %s", running.State())
	}
	if queued.State() != Cancelled {
		t.Fatalf("queued job should be cancelled by drain, is %s", queued.State())
	}
	if _, err := m.Submit(Spec{App: "fib", Size: 10}); err == nil {
		t.Fatal("submissions during drain must be rejected")
	}
}

// TestJobRunsBeforeJoinsAck: a job's deployment waits for no registry
// ack. From submit to Running takes less than one join round trip (40 ms
// here, so that scheduling noise under -race is small beside it); the
// master is the lowest ID and runs the root while the other joins are in
// flight; a four-node job on a 2 × 2 pool holds all of it.
func TestJobRunsBeforeJoinsAck(t *testing.T) {
	const rtt = 40 * time.Millisecond
	m := testManager(t, 2, 2, func(c *Config) { c.WANLatency = rtt })

	start := time.Now()
	j, err := m.Submit(Spec{App: "fib", Size: 10, MinNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() < Running {
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took >= rtt {
		t.Fatalf("submit to %s took %v, want under one join round trip (%v)", j.State(), took, rtt)
	}
	waitTerminal(t, j, 30*time.Second)
	if j.State() != Done || j.Result().Check != "ok" {
		t.Fatalf("state %s, check %q, err %q", j.State(), j.Result().Check, j.Result().Err)
	}

	client, err := m.arb.Register("direct", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gridCfg := m.grid
	gridCfg.Pool = client
	g, err := satin.NewGrid(gridCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	master, err := m.provision(newJob("direct", Spec{MinNodes: 4}, Hooks{}, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	if master.ID() != "fs0/00" {
		t.Fatalf("master is %s, want the lowest ID fs0/00", master.ID())
	}
	for _, id := range []satin.NodeID{"fs0/00", "fs0/01", "fs1/00", "fs1/01"} {
		if g.Node(id) == nil {
			t.Fatalf("deployment lacks %s", id)
		}
	}
}

// lostJoinFabric stands for a registry the matching endpoints never
// reach: the first join each sends is lost on the way, and every later
// send to the registry finds it closed, so their joins give up at the
// first retry.
type lostJoinFabric struct {
	transport.Fabric
	lost func(endpoint string) bool
}

func (f lostJoinFabric) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(name)
	if err != nil || !f.lost(name) {
		return ep, err
	}
	return &lostJoinEndpoint{Endpoint: ep}, nil
}

type lostJoinEndpoint struct {
	transport.Endpoint
	sent atomic.Bool
}

func (e *lostJoinEndpoint) Send(to, kind string, payload []byte) error {
	if to != registry.ServerName {
		return e.Endpoint.Send(to, kind, payload)
	}
	if e.sent.CompareAndSwap(false, true) {
		return nil
	}
	return transport.ErrClosed
}

// TestJobFinishesOnMasterWhenJoinsFail: a job whose non-master nodes
// never get a join ack runs on the master alone. Those nodes stop like
// crashed ones a retry after they started, each failure is counted, and
// the result is still right.
func TestJobFinishesOnMasterWhenJoinsFail(t *testing.T) {
	m := testManager(t, 2, 2, nil)
	m.grid.WrapFabric = func(f transport.Fabric) transport.Fabric {
		return lostJoinFabric{f, func(ep string) bool { return !strings.HasSuffix(ep, "fs0/00") }}
	}
	failed := obs.Default.Counter("satin/join_failed").Value()
	var last atomic.Int64 // node count at the last iteration
	j, err := m.SubmitJob(Spec{App: "fib", Size: 14, Iters: 40, MinNodes: 4}, Hooks{
		OnIteration: func(_ int, _ float64, nodes int) { last.Store(int64(nodes)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 30*time.Second)
	if j.State() != Done || j.Result().Check != "ok" {
		t.Fatalf("state %s, check %q, err %q", j.State(), j.Result().Check, j.Result().Err)
	}
	if n := last.Load(); n != 1 {
		t.Fatalf("the last iteration ran on %d nodes, want the master alone", n)
	}
	if n := obs.Default.Counter("satin/join_failed").Value() - failed; n != 3 {
		t.Fatalf("satin/join_failed rose by %d, want the three non-master nodes", n)
	}
}

// TestManagerLifecycleReturnsGoroutines: twenty short jobs, an adaptive
// one and one cancelled while provisioning, then Drain and Close. Every
// goroutine the service started, the nodes' registry sessions included,
// is gone afterwards.
func TestManagerLifecycleReturnsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := NewManager(testConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}

	// A job that finds the whole pool held waits in Provisioning.
	hold, err := m.arb.Register("hold", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var held []sched.NodeRef
	for _, c := range m.cfg.Clusters {
		held = append(held, hold.AcquireN(c.Name, c.Nodes)...)
	}
	stuck, err := m.Submit(Spec{App: "fib", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, stuck, Provisioning, 10*time.Second)
	if err := m.Cancel(stuck.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, stuck, 10*time.Second)
	if stuck.State() != Cancelled {
		t.Fatalf("job cancelled while provisioning is %s", stuck.State())
	}
	for _, r := range held {
		hold.Release(r)
	}
	hold.Close()

	var jobs []*Job
	adaptive, err := m.Submit(Spec{App: "fib", Size: 16, Iters: 10, MinNodes: 2, Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, adaptive)
	for i := 0; i < 20; i++ {
		j, err := m.Submit(Spec{App: "fib", Size: 10, MinNodes: 1 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitTerminal(t, j, 30*time.Second)
		if j.State() != Done || j.Result().Check != "ok" {
			t.Fatalf("%s: state %s, check %q, err %q", j.ID, j.State(), j.Result().Check, j.Result().Err)
		}
	}
	m.Drain(10 * time.Second)
	m.Close()

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdaptiveJobStopsReportsBeforeCoordinator: an adaptive job halts
// its nodes before it stops its coordinator tree. The other way round, a
// node that reported in between found no sub-coordinator and counted
// wire/send_err/report: about 25 per traced service_jobs run, where the
// job ends on its nodes' report tick. With a 1 ms period the old order
// counted 3 to 13 such failures over these twenty jobs, in five runs of
// five. Counting starts at the last iteration: a node
// may report before its job's coordinator has started, which is not
// what this test is about.
func TestAdaptiveJobStopsReportsBeforeCoordinator(t *testing.T) {
	sendErrs := obs.Default.Counter("wire/send_err/report")
	const jobs, iters = 20, 3
	var gap uint64
	for i := 0; i < jobs; i++ {
		m := testManager(t, 1, 2, nil)
		var atEnd uint64
		j, err := m.SubmitJob(Spec{App: "fib", Size: 14, Iters: iters, MinNodes: 2, Adapt: true, Period: time.Millisecond},
			Hooks{OnIteration: func(i int, _ float64, _ int) {
				if i == iters-1 {
					atEnd = sendErrs.Value()
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 10*time.Second)
		if j.State() != Done || j.Result().Check != "ok" {
			t.Fatalf("%s: state %s, check %q, err %q", j.ID, j.State(), j.Result().Check, j.Result().Err)
		}
		m.Drain(10 * time.Second) // the job's teardown has run
		gap += sendErrs.Value() - atEnd
	}
	if gap != 0 {
		t.Fatalf("%d adaptive jobs raised wire/send_err/report by %d from their last iteration on, want 0", jobs, gap)
	}
}
