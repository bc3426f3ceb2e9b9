package adapt_test

// Live sharded-tree tests (ISSUE 8): scripted reports drive real
// sub-kernel-mode SubCoordinators against a real sharded root over the
// in-process fabric, so the failover path — missed acks, election,
// requirements carryover, resumed adaptation — runs with real
// goroutines, timers and registry failure detection (and under -race
// in CI's chaos slice).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// feedSubReports periodically reports scripted statistics for every
// worker still in the computation — to the worker's per-cluster
// sub-coordinator endpoint, as hierarchical deployments do. The offset
// shifts the report timestamps so a later feeding phase always looks
// fresher than an earlier one.
func feedSubReports(t *testing.T, f transport.Fabric, stop chan struct{}, offset float64,
	report func(w *scriptWorker, start, end float64) metrics.Report, workers []*scriptWorker) {
	t.Helper()
	ep, err := f.Endpoint(fmt.Sprintf("shard-feeder-%d", feederSeq.Add(1)))
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.New(ep)
	go func() {
		defer wc.Close()
		period := 0
		const dur = 0.1
		for {
			select {
			case <-stop:
				return
			case <-time.After(60 * time.Millisecond):
			}
			start := offset + float64(period)*dur
			for _, w := range workers {
				if w.gone() {
					continue
				}
				wire.Send(wc, adapt.SubEndpointName(w.cluster), report(w, start, start+dur))
			}
			period++
		}
	}()
}

// TestChaosShardedRootFailover kills the live sharded root mid-run.
// The sub-coordinators must notice through missed acks, elect a
// successor (deterministically the lowest sub endpoint — cluster ca),
// carry the learned blacklist over, and converge the grid back into
// the [E_min, E_max] band under the new root.
func TestChaosShardedRootFailover(t *testing.T) {
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
	prov := &scriptProvisioner{}
	root, err := adapt.Start(fab, prov, adapt.Config{
		Sharded:   true,
		Period:    period,
		Protected: []adapt.NodeID{master.id},
		Registry:  fastReg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rootStopped := false
	defer func() {
		if !rootStopped {
			root.Stop()
		}
	}()

	subCfg := adapt.SubConfig{
		Period:        period,
		FailoverAfter: 2,
		Prov:          prov,
		Registry:      fastReg(),
		Root: adapt.Config{
			Period:    period,
			Protected: []adapt.NodeID{master.id},
			Registry:  fastReg(),
		},
	}
	subs := map[adapt.ClusterID]*adapt.SubCoordinator{}
	for _, cl := range []adapt.ClusterID{"ca", "cb"} {
		sub, err := adapt.StartSubKernel(fab, cl, subCfg)
		if err != nil {
			t.Fatal(err)
		}
		subs[cl] = sub
		defer sub.Stop()
	}

	// Phase 1: idle-heavy statistics — WAE far below E_min — until the
	// root has shed and blacklisted at least one node.
	stop1 := make(chan struct{})
	feedSubReports(t, fab, stop1, 0, func(w *scriptWorker, start, end float64) metrics.Report {
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
			t.Fatal("sharded root never evicted and blacklisted a node")
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stop1)

	// Let a few ack rounds distribute the updated requirements cache to
	// the subs (the failover seed), then kill the root.
	time.Sleep(3 * period)
	root.Stop()
	rootStopped = true
	// The successor claims the dead root's endpoint name. Its peers must
	// take it for a new incarnation, not discard its first frames as
	// replays of the old root's.
	dupAcks := obs.Default.Counter("wire/dup/summary-ack")
	dupJoins := obs.Default.Counter("wire/dup/join")
	dupAcksBefore, dupJoinsBefore := dupAcks.Value(), dupJoins.Value()

	// The subs detect the silence and one elects itself. Cluster ca owns
	// the lowest endpoint name, so it should win; we accept either sub
	// (the registry's failure detector may reorder under load) — the
	// invariants under test are that exactly one succeeds and recovers.
	var promoted *adapt.Coordinator
	deadline = time.Now().Add(10 * time.Second)
	for promoted == nil {
		for cl, sub := range subs {
			if p := sub.Promoted(); p != nil {
				promoted = p
				t.Logf("cluster %s promoted itself", cl)
				break
			}
		}
		if promoted == nil {
			if time.Now().After(deadline) {
				t.Fatal("no sub-coordinator promoted itself after root death")
			}
			time.Sleep(30 * time.Millisecond)
		}
	}
	defer promoted.Stop()
	if other := subs["ca"].Promoted(); other == nil {
		// cb must only win when ca genuinely dropped off the registry.
		t.Logf("note: cb won the election (ca's registry entry lapsed)")
	}

	// Blacklist carryover: the successor re-bootstraps requirements from
	// the subs' cached ReqState; blacklists must never regress.
	deadline = time.Now().Add(10 * time.Second)
	for {
		have := map[core.NodeID]bool{}
		for _, id := range promoted.Requirements().BlacklistedNodes() {
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
				preBlacklist, promoted.Requirements().BlacklistedNodes())
		}
		time.Sleep(30 * time.Millisecond)
	}

	// Phase 2: in-band statistics (efficiency 0.4) — the successor must
	// see the grid back inside [E_min, E_max] on fresh reports.
	stop2 := make(chan struct{})
	defer close(stop2)
	feedSubReports(t, fab, stop2, 1000, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.4 * dur, IdleSec: 0.6 * dur}
	}, workers)

	th := adapt.DefaultThresholds()
	deadline = time.Now().Add(10 * time.Second)
	for {
		inBand := false
		for _, h := range promoted.History() {
			if h.Stats > 0 && h.WAE >= th.EMin && h.WAE <= th.EMax {
				inBand = true
				break
			}
		}
		if inBand {
			break
		}
		if time.Now().After(deadline) {
			for _, h := range promoted.History() {
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

// TestShardedStreamSLOGrowsOnViolation drives ISSUE 9's streaming
// objective through the live sharded tree: per-cluster stream partials
// fed to sub-kernel-mode SubCoordinators must travel inside
// ClusterSummary frames, sum at the root, and push its StreamSLO
// objective into a proportional grow decision — the sharded analogue of
// the flat coordinator path the job layer exercises.
func TestShardedStreamSLOGrowsOnViolation(t *testing.T) {
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
	slo := adapt.DefaultStreamSLO(1) // 1s latency target
	prov := &scriptProvisioner{}
	root, err := adapt.Start(fab, prov, adapt.Config{
		Sharded:   true,
		Period:    period,
		Registry:  fastReg(),
		StreamSLO: &slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	subs := map[adapt.ClusterID]*adapt.SubCoordinator{}
	for _, cl := range []adapt.ClusterID{"ca", "cb"} {
		sub, err := adapt.StartSubKernel(fab, cl, adapt.SubConfig{
			Period: period, Prov: prov, Registry: fastReg(),
		})
		if err != nil {
			t.Fatal(err)
		}
		subs[cl] = sub
		defer sub.Stop()
	}

	// Busy, healthy node statistics — under the streaming objective the
	// efficiency band must not matter; only the latency does.
	stop := make(chan struct{})
	defer close(stop)
	feedSubReports(t, fab, stop, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.9 * dur, IdleSec: 0.1 * dur}
	}, workers)
	// Each cluster completes items at a 4s mean latency — four times the
	// target, an unambiguous SLO violation every period.
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			subs["ca"].ObserveStream(adapt.StreamObs{Arrived: 5, Completed: 5, LatencySum: 20})
			subs["cb"].ObserveStream(adapt.StreamObs{Arrived: 5, Completed: 5, LatencySum: 20, Backlog: 2})
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
			t.Fatal("sharded root never grew on a sustained stream SLO violation")
		}
		time.Sleep(30 * time.Millisecond)
	}
}

// TestSubFlushRetriesUntilRootReturns pins the sub's behaviour through
// a root outage: a summary the sub cannot deliver (no coordinator
// endpoint) is counted on summary_send_failures, the reports behind it
// stay in the sub-kernel, and the first summary after the root exists
// again carries them — never silently dropped.
func TestSubFlushRetriesUntilRootReturns(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}
	startScriptWorker(t, fab, "c0/00", "c0")

	const period = 100 * time.Millisecond
	sub, err := adapt.StartSubKernel(fab, "c0", adapt.SubConfig{
		Period:        period,
		FailoverAfter: 1 << 30, // this test is about the retry, not the election
		Registry:      fastReg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Stop()

	ep, err := fab.Endpoint("pusher")
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.New(ep)
	defer wc.Close()

	// The only report this test ever sends arrives while no coordinator
	// exists: any statistics the coordinator later sees must be the
	// retained ones.
	failures := obs.Default.Counter("adapt/summary_send_failures")
	before := failures.Value()
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

	coord, err := adapt.Start(fab, &scriptProvisioner{}, adapt.Config{
		Sharded: true, Period: period, MonitorOnly: true, Registry: fastReg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	deadline = time.Now().Add(5 * time.Second)
	for {
		hist := coord.History()
		if n := len(hist); n > 0 && hist[n-1].Stats == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained report never reached the root after the outage: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
