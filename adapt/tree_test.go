package adapt_test

// Live coordinator-tree tests: scripted reports drive the real
// sub-coordinators and root that adapt.Start brings up over the
// in-process fabric, so the failover path — missed acks, election,
// requirements carryover, resumed adaptation — runs with real
// goroutines, timers and registry failure detection (and under -race
// in CI's chaos slice).

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/workload"
)

// failoverLabel returns the annotation a promoted successor left — it
// names the winner and its start epoch — or "".
func failoverLabel(anns []adapt.Annotation) string {
	for _, a := range anns {
		if strings.Contains(a.Label, "root coordinator failover") {
			return a.Label
		}
	}
	return ""
}

// awaitFailover blocks until a successor root has been promoted and
// returns the length of the shared history at that point, so callers
// can tell the successor's periods from its predecessor's.
func awaitFailover(t *testing.T, c *adapt.Coordinator) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if label := failoverLabel(c.Annotations()); label != "" {
			t.Log(label)
			return len(c.History())
		}
		if time.Now().After(deadline) {
			t.Fatal("no sub-coordinator promoted itself after root death")
		}
		time.Sleep(30 * time.Millisecond)
	}
}

// TestChaosRootFailover kills the live root mid-run. The
// sub-coordinators must notice through missed acks, elect a successor
// (deterministically the lowest live cluster — ca), carry the learned
// blacklist over, and converge the grid back into the [E_min, E_max]
// band under the new root — all behind the one Coordinator plain
// adapt.Start returned.
func TestChaosRootFailover(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}

	var workers []*scriptWorker
	for _, id := range []core.NodeID{"ca/00", "ca/01", "ca/02"} {
		workers = append(workers, startScriptWorker(t, fab, id, "ca"))
	}
	for _, id := range []core.NodeID{"cb/00", "cb/01", "cb/02"} {
		workers = append(workers, startScriptWorker(t, fab, id, "cb"))
	}
	master := workers[0]

	const period = 150 * time.Millisecond
	root, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{master.id},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	// Phase 1: idle-heavy statistics — WAE far below E_min — until the
	// root has shed and blacklisted at least one node.
	stop1 := make(chan struct{})
	feedReports(t, fab, stop1, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.1 * dur, IdleSec: 0.9 * dur}
	}, workers)

	deadline := time.Now().Add(10 * time.Second)
	var preBlacklist []core.NodeID
	for {
		preBlacklist = root.Requirements().BlacklistedNodes()
		if len(preBlacklist) > 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stop1)
			for _, h := range root.History() {
				t.Logf("WAE=%.3f stats=%d action=%q (+%d -%d) %s",
					h.WAE, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatal("root never evicted and blacklisted a node")
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stop1)

	// Let a few ack rounds distribute the updated requirements cache to
	// the subs (the failover seed), then kill the root.
	time.Sleep(3 * period)
	// The successor claims the dead root's endpoint name. Its peers must
	// take it for a new incarnation, not discard its first frames as
	// replays of the old root's.
	dupAcks := obs.Default.Counter("wire/dup/summary-ack")
	dupJoins := obs.Default.Counter("wire/dup/join")
	dupAcksBefore, dupJoinsBefore := dupAcks.Value(), dupJoins.Value()
	// Every miss the subs count during the outage must be explained on
	// their own side (the root refused the summary); the root side lost
	// no ack and no reset on the way out.
	refused := obs.Default.Counter("adapt/summary_send_failures")
	lostAcks := obs.Default.Counter("adapt/ack_send_failures")
	lostResets := obs.Default.Counter("adapt/reset_send_failures")
	refusedBefore, lostAcksBefore, lostResetsBefore := refused.Value(), lostAcks.Value(), lostResets.Value()
	root.KillRoot()

	// The subs detect the silence and one elects itself. Cluster ca is
	// the lowest, so it should win; we accept cb (the registry's failure
	// detector may have dropped ca's sub under load) — the invariants
	// under test are that exactly one succeeds and recovers.
	promotedAt := awaitFailover(t, root)
	if refused.Value() == refusedBefore {
		t.Error("root was down but no sub counted a refused summary")
	}
	if acks, resets := lostAcks.Value()-lostAcksBefore, lostResets.Value()-lostResetsBefore; acks+resets != 0 {
		t.Errorf("root side lost frames around the outage: %d acks, %d resets", acks, resets)
	}

	// Blacklist carryover: the successor re-bootstraps requirements from
	// the subs' cached ReqState; blacklists must never regress.
	deadline = time.Now().Add(10 * time.Second)
	for {
		have := map[core.NodeID]bool{}
		for _, id := range root.Requirements().BlacklistedNodes() {
			have[id] = true
		}
		missing := 0
		for _, id := range preBlacklist {
			if !have[id] {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blacklist regressed across failover: pre %v, post %v",
				preBlacklist, root.Requirements().BlacklistedNodes())
		}
		time.Sleep(30 * time.Millisecond)
	}

	// Phase 2: in-band statistics (efficiency 0.4) — the successor must
	// see the grid back inside [E_min, E_max] on fresh reports.
	stop2 := make(chan struct{})
	defer close(stop2)
	feedReports(t, fab, stop2, 1000, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.4 * dur, IdleSec: 0.6 * dur}
	}, workers)

	th := core.DefaultConfig()
	deadline = time.Now().Add(10 * time.Second)
	for {
		inBand := false
		for _, h := range root.History()[promotedAt:] {
			if h.Stats > 0 && h.WAE >= th.EMin && h.WAE <= th.EMax {
				inBand = true
				break
			}
		}
		if inBand {
			break
		}
		if time.Now().After(deadline) {
			for _, h := range root.History()[promotedAt:] {
				t.Logf("WAE=%.3f stats=%d action=%q (+%d -%d) %s",
					h.WAE, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatal("successor never saw the grid back in the efficiency band")
		}
		time.Sleep(30 * time.Millisecond)
	}

	if master.gone() {
		t.Error("protected master was evicted during failover")
	}
	if acks, joins := dupAcks.Value()-dupAcksBefore, dupJoins.Value()-dupJoinsBefore; acks+joins != 0 {
		t.Errorf("promoted root's frames discarded as duplicates: %d summary-ack, %d join", acks, joins)
	}
}

// TestStreamSLOGrowsOnViolation drives ISSUE 9's streaming objective
// through the live tree the way the job layer does: observations handed
// to Coordinator.ObserveStream must land at the master's cluster sub,
// travel inside ClusterSummary frames, and push the root's StreamSLO
// objective into a proportional grow decision.
func TestStreamSLOGrowsOnViolation(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}

	var workers []*scriptWorker
	for _, id := range []core.NodeID{"ca/00", "ca/01"} {
		workers = append(workers, startScriptWorker(t, fab, id, "ca"))
	}
	for _, id := range []core.NodeID{"cb/00", "cb/01"} {
		workers = append(workers, startScriptWorker(t, fab, id, "cb"))
	}

	const period = 100 * time.Millisecond
	slo := adapt.StreamSLOConfig{TargetLatency: 1}
	dropped := obs.Default.Counter("adapt/stream_obs_dropped")
	droppedBefore := dropped.Value()
	root, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{workers[0].id},
		StreamSLO: &slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	// Busy, healthy node statistics — under the streaming objective the
	// efficiency band must not matter; only the latency does.
	stop := make(chan struct{})
	defer close(stop)
	feedReports(t, fab, stop, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.9 * dur, IdleSec: 0.1 * dur}
	}, workers)
	// Items complete at a 4s mean latency — four times the target, an
	// unambiguous SLO violation every period.
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			root.ObserveStream(adapt.StreamObs{Arrived: 10, Completed: 10, LatencySum: 40, Backlog: 2})
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		grew := false
		for _, h := range root.History() {
			if h.Action == "add" && h.Stats > 0 {
				if h.WAE >= 1 {
					t.Fatalf("grow decision with healthy stream: health %.3f (%s)", h.WAE, h.Detail)
				}
				if !strings.Contains(h.Detail, "stream health") {
					t.Fatalf("grow reason is not the streaming objective's: %q", h.Detail)
				}
				grew = true
				break
			}
		}
		if grew {
			break
		}
		if time.Now().After(deadline) {
			for _, h := range root.History() {
				t.Logf("health=%.3f stats=%d action=%q (+%d -%d) %s",
					h.WAE, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatal("root never grew on a sustained stream SLO violation")
		}
		time.Sleep(30 * time.Millisecond)
	}
	if n := dropped.Value() - droppedBefore; n != 0 {
		t.Errorf("%d stream observations found no sub-coordinator to land at", n)
	}
}

// TestSubFlushRetriesUntilRootReturns pins the sub's behaviour through
// a root outage: a summary the sub cannot deliver (no coordinator
// endpoint) is counted on summary_send_failures, the reports behind it
// stay in the sub-kernel, and the first summary a root accepts again —
// here the successor the sub elects — carries them, never silently
// dropped.
func TestSubFlushRetriesUntilRootReturns(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}
	startScriptWorker(t, fab, "c0/00", "c0")

	const period = 100 * time.Millisecond
	coord, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
		Period: period, MonitorOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	ep, err := fab.Endpoint("pusher")
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.New(ep)
	defer wc.Close()

	// The only report this test ever sends arrives while no root exists:
	// any statistics a root later sees must be the retained ones.
	failures := obs.Default.Counter("adapt/summary_send_failures")
	before := failures.Value()
	coord.KillRoot()
	rep := metrics.Report{Node: "c0/00", Cluster: "c0", End: 0.1,
		BusySec: 0.05, IdleSec: 0.05, Speed: 1}
	if err := wire.Send(wc, adapt.SubEndpointName("c0"), rep); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for failures.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("summary to the missing coordinator never failed visibly")
		}
		time.Sleep(10 * time.Millisecond)
	}

	promotedAt := awaitFailover(t, coord)
	deadline = time.Now().Add(5 * time.Second)
	for {
		hist := coord.History()[promotedAt:]
		if n := len(hist); n > 0 && hist[n-1].Stats == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained report never reached the root after the outage: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rootCrashScript is one failure story both runtimes can play: three
// equal clusters, the last one so badly connected that the root's first
// decision evacuates it, and the root killed right after that decision.
type rootCrashScript struct {
	clusters   []core.ClusterID
	perCluster int
}

// outcome is what the story's successor looks like from outside.
type failoverOutcome struct {
	label     string // the failover annotation: winner and start epoch
	blacklist []string
}

func outcomeOf(label string, reqs *core.Requirements) failoverOutcome {
	out := failoverOutcome{label: label}
	for _, id := range reqs.BlacklistedNodes() {
		out.blacklist = append(out.blacklist, "node "+string(id))
	}
	for _, cl := range reqs.BlacklistedClusters() {
		out.blacklist = append(out.blacklist, "cluster "+string(cl))
	}
	sort.Strings(out.blacklist)
	return out
}

// playDES runs the script on the simulator (the paper's scenario 4 on
// the coordinator tree, plus the root kill between the first and the
// second tick).
func (sc rootCrashScript) playDES(t *testing.T) failoverOutcome {
	t.Helper()
	bad := sc.clusters[len(sc.clusters)-1]
	mon := des.DefaultMonitor()
	crashAt := mon.Period + 20 // the root's first tick is at Period+2
	cfg := core.DefaultConfig()
	p := des.Params{
		Topo: topo.DAS2(), Spec: workload.BarnesHut(100000, 60), Seed: 42,
		Mon: mon, Adapt: &cfg, Sharded: true,
		Events: []des.Injection{
			{At: 1, Kind: des.InjShapeUplink, Cluster: bad, Bandwidth: 100e3},
			{At: crashAt, Kind: des.InjCrashRoot},
		},
	}
	for _, cl := range sc.clusters {
		p.Initial = append(p.Initial, des.Alloc{Cluster: cl, Count: sc.perCluster})
	}
	// A crashed root does not tick, so the first period observed after
	// the kill is the successor's first — before any summary reached it,
	// its requirements are exactly what it adopted.
	var adopted *failoverOutcome
	p.Observe = func(rec des.PeriodRecord, reqs *core.Requirements, _ map[core.ClusterID]int) {
		if rec.Time > crashAt && adopted == nil {
			o := outcomeOf("", reqs)
			adopted = &o
		}
	}
	res, err := des.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if adopted == nil {
		t.Fatal("DES: no period after the root crash")
	}
	adopted.label = failoverLabel(res.Annotations)
	return *adopted
}

// playLive runs the script on the real tree: scripted workers under the
// DES's node names, reports that make the last cluster's uplink the
// culprit, and the root incarnation killed once it has acted.
func (sc rootCrashScript) playLive(t *testing.T) failoverOutcome {
	t.Helper()
	// The election reads the registry; a failure detector twitchy enough
	// to drop a live sub under -race would change the winner.
	reg := registry.Options{HeartbeatInterval: 20 * time.Millisecond, FailureTimeout: time.Second}
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, reg); err != nil {
		t.Fatal(err)
	}
	bad := sc.clusters[len(sc.clusters)-1]
	var workers []*scriptWorker
	for _, cl := range sc.clusters {
		for i := 0; i < sc.perCluster; i++ {
			workers = append(workers, startScriptWorker(t, fab, topo.NodeName(cl, i), cl))
		}
	}
	const period = 150 * time.Millisecond
	c, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
		Period:    period,
		Protected: []adapt.NodeID{workers[0].id},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// The well-connected clusters sit mid-band on their own; the bad one
	// idles behind its uplink and drags the average under E_min. Once it
	// is gone nothing is left to act on, so the root acts exactly once.
	stop := make(chan struct{})
	defer close(stop)
	feedReports(t, fab, stop, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		rep := metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end, Speed: 1}
		if w.cluster == bad {
			rep.BusySec, rep.IdleSec, rep.InterSec = 0.05*dur, 0.35*dur, 0.6*dur
		} else {
			rep.BusySec, rep.IdleSec, rep.InterSec = 0.4*dur, 0.55*dur, 0.05*dur
		}
		return rep
	}, workers)

	deadline := time.Now().Add(10 * time.Second)
	for len(c.Requirements().BlacklistedClusters()) == 0 {
		if time.Now().After(deadline) {
			for _, h := range c.History() {
				t.Logf("WAE=%.3f stats=%d action=%q (+%d -%d) %s", h.WAE, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatal("live: the root never evacuated the badly connected cluster")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(3 * period) // the reset and a round of acks reach every sub
	c.KillRoot()
	awaitFailover(t, c)
	return outcomeOf(failoverLabel(c.Annotations()), c.Requirements())
}

// TestChaosCrossRuntimeRootCrash plays one root-crash script through the
// simulator and through the live tree. Both run coord's protocol
// machine, so the story must end the same way: the same winner starting
// at the same epoch (the failover annotation names both) with the same
// adopted blacklist.
func TestChaosCrossRuntimeRootCrash(t *testing.T) {
	sc := rootCrashScript{clusters: []core.ClusterID{"fs0", "fs1", "fs2"}, perCluster: 12}
	sim, live := sc.playDES(t), sc.playLive(t)
	if sim.label != "root coordinator failover: cluster fs0 elected (epoch 1)" {
		t.Errorf("DES successor: %q", sim.label)
	}
	if len(sim.blacklist) != sc.perCluster+1 {
		t.Errorf("DES successor adopted %v, want cluster fs2 and its %d nodes", sim.blacklist, sc.perCluster)
	}
	if !reflect.DeepEqual(sim, live) {
		t.Errorf("runtimes disagree on the successor:\n DES  %+v\n live %+v", sim, live)
	}
}

// TestLifecycleGoroutineBaseline counts goroutines around the tree's
// life: Stop owns every root incarnation and every sub, so nothing may
// outlive it — not the killed root, not the successor a sub promoted.
func TestLifecycleGoroutineBaseline(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}
	startScriptWorker(t, fab, "ca/00", "ca")
	startScriptWorker(t, fab, "cb/00", "cb")
	cycle := func(failover bool) {
		c, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
			Period: 50 * time.Millisecond, MonitorOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		for len(c.History()) < 2 {
			time.Sleep(10 * time.Millisecond)
		}
		if !failover {
			return
		}
		running := runtime.NumGoroutine()
		c.KillRoot()
		awaitFailover(t, c)
		settleGoroutines(t, running, "after the failover (the dead root's are gone, the successor's took their place)")
	}
	// A first life warms what the fabric creates lazily and keeps (link
	// workers towards the long-lived test members); the count after it is
	// the baseline the second life, failover included, must return to.
	cycle(false)
	base := runtime.NumGoroutine()
	for settled, tries := 0, 0; settled < 3 && tries < 100; tries++ { // let the first life's stragglers exit
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, settled = n, 0
		} else {
			settled++
		}
	}
	cycle(true)
	settleGoroutines(t, base, "after Stop")
}

// settleGoroutines waits for the goroutine count to come down to want.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines %s, want at most %d:\n%s", runtime.NumGoroutine(), when, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
