package adapt_test

// Scripted-report chaos tests: instead of running a real workload,
// these drive the coordinator with fake registry members and
// hand-crafted metrics.Reports, so the decision path under test
// (cluster-eviction fallback, blacklist persistence across repeated
// shrinks) is hit deterministically every run.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// scriptWorker is a registry member that obeys "leave" signals like a
// real satin node: it departs gracefully and never comes back.
type scriptWorker struct {
	id      core.NodeID
	cluster core.ClusterID
	cli     *registry.Client
	left    chan struct{}
}

func startScriptWorker(t *testing.T, f transport.Fabric, id core.NodeID, cluster core.ClusterID) *scriptWorker {
	t.Helper()
	cli, err := registry.Join(f, registry.NodeInfo{ID: id, Cluster: cluster}, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &scriptWorker{id: id, cluster: cluster, cli: cli, left: make(chan struct{})}
	go func() {
		for ev := range cli.Events() {
			if ev.Kind == registry.SignalEvent && ev.Signal == "leave" {
				cli.Leave()
				close(w.left)
				return
			}
		}
	}()
	t.Cleanup(func() { cli.Close() })
	return w
}

func (w *scriptWorker) gone() bool {
	select {
	case <-w.left:
		return true
	default:
		return false
	}
}

// scriptProvisioner records every provisioning request and what the
// veto said about a fixed candidate pool.
type scriptProvisioner struct {
	mu         sync.Mutex
	calls      int
	candidates []registry.NodeInfo
	vetoed     map[core.NodeID]bool
}

func (p *scriptProvisioner) Provision(n int, minBW float64, veto func(adapt.NodeID, adapt.ClusterID) bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	for _, c := range p.candidates {
		if veto(c.ID, c.Cluster) {
			if p.vetoed == nil {
				p.vetoed = map[core.NodeID]bool{}
			}
			p.vetoed[c.ID] = true
		}
	}
	return 0 // grants nothing: the node set only ever shrinks
}

func (p *scriptProvisioner) snapshot() (int, map[core.NodeID]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[core.NodeID]bool, len(p.vetoed))
	for id := range p.vetoed {
		out[id] = true
	}
	return p.calls, out
}

var feederSeq atomic.Int64

// feedReports periodically reports scripted statistics for every worker
// still in the computation, each to its cluster's sub-coordinator as a
// real node does. The offset shifts the report timestamps so a later
// feeding phase always looks fresher than an earlier one.
func feedReports(t *testing.T, f transport.Fabric, stop chan struct{}, offset float64,
	report func(w *scriptWorker, start, end float64) metrics.Report, workers []*scriptWorker) {
	t.Helper()
	ep, err := f.Endpoint(fmt.Sprintf("feeder-%d", feederSeq.Add(1)))
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

// The cluster-eviction fallback: a badly connected cluster holds only
// the protected master, so evacuating it is impossible — the
// coordinator must fall back to shedding the worst ordinary nodes
// elsewhere, must NOT blacklist the cluster it could not actually
// evict, and must never touch the master.
func TestChaosClusterEvictionFallback(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}

	master := startScriptWorker(t, fab, "bad/00", "bad")
	var others []*scriptWorker
	for _, id := range []core.NodeID{"ok/00", "ok/01", "ok/02", "ok/03"} {
		others = append(others, startScriptWorker(t, fab, id, "ok"))
	}
	workers := append([]*scriptWorker{master}, others...)

	prov := &scriptProvisioner{}
	coord, err := adapt.Start(fab, prov, adapt.Config{
		Period:    150 * time.Millisecond,
		Protected: []adapt.NodeID{master.id},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	// Script: WAE ~0.2 (below E_min) and the "bad" cluster spends 50%
	// of its time in inter-cluster communication — exceptional against
	// the others' 5%, so the engine decides remove-cluster("bad").
	stop := make(chan struct{})
	defer close(stop)
	feedReports(t, fab, stop, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		rep := metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end, Speed: 1}
		if w.cluster == "bad" {
			rep.BusySec, rep.IdleSec, rep.InterSec = 0.2*dur, 0.3*dur, 0.5*dur
		} else {
			rep.BusySec, rep.IdleSec, rep.InterSec = 0.2*dur, 0.75*dur, 0.05*dur
		}
		return rep
	}, workers)

	// The fallback must shed ordinary nodes since the offending
	// cluster cannot be evacuated.
	deadline := time.Now().Add(10 * time.Second)
	lastBlacklist := 0
	for {
		evicted := 0
		for _, w := range others {
			if w.gone() {
				evicted++
			}
		}
		// Blacklists only grow, even while we poll mid-flight.
		if n := len(coord.Requirements().BlacklistedNodes()); n < lastBlacklist {
			t.Fatalf("node blacklist shrank: %d -> %d", lastBlacklist, n)
		} else {
			lastBlacklist = n
		}
		if evicted >= 2 {
			break
		}
		if time.Now().After(deadline) {
			for _, h := range coord.History() {
				t.Logf("WAE=%.3f stats=%d action=%q (+%d -%d) %s",
					h.WAE, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatalf("fallback never evicted ordinary nodes (%d gone)", evicted)
		}
		time.Sleep(30 * time.Millisecond)
	}

	if master.gone() {
		t.Error("protected master was evicted")
	}
	// The cluster itself must not be blacklisted: nothing actually
	// left it, so concluding "this site is unusable" would be wrong.
	if bl := coord.Requirements().BlacklistedClusters(); len(bl) != 0 {
		t.Errorf("cluster blacklisted despite failed evacuation: %v", bl)
	}
	// The record must say what happened: a remove-cluster decision
	// that removed ordinary nodes instead.
	sawFallback := false
	for _, h := range coord.History() {
		if h.Action == "remove-cluster" && h.Removed > 0 {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("history records no remove-cluster tick with fallback removals")
	}
	for _, id := range coord.Requirements().BlacklistedNodes() {
		if id == master.id {
			t.Error("protected master on the blacklist")
		}
	}
}

// Blacklist persistence under repeated shrinks: every shrink round
// adds to the blacklist, never replaces it, and once the coordinator
// wants to grow again the veto bars every previously evicted node from
// re-entry.
func TestChaosBlacklistPersistsAcrossShrinks(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, fastReg()); err != nil {
		t.Fatal(err)
	}

	ids := []core.NodeID{"c0/00", "c0/01", "c0/02", "c0/03", "c0/04", "c0/05"}
	var workers []*scriptWorker
	for _, id := range ids {
		workers = append(workers, startScriptWorker(t, fab, id, "c0"))
	}
	master := workers[0]

	prov := &scriptProvisioner{}
	for _, id := range ids {
		prov.candidates = append(prov.candidates, registry.NodeInfo{ID: id, Cluster: "c0"})
	}
	coord, err := adapt.Start(fab, prov, adapt.Config{
		Period:    150 * time.Millisecond,
		Protected: []adapt.NodeID{master.id},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	// Phase 1: everyone nearly idle — WAE far below E_min, so the
	// coordinator sheds nodes round after round (fresh statistics in
	// between, so consecutive shrinks are legitimate).
	stop1 := make(chan struct{})
	feedReports(t, fab, stop1, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start, End: end,
			Speed: 1, BusySec: 0.1 * dur, IdleSec: 0.9 * dur}
	}, workers)

	deadline := time.Now().Add(10 * time.Second)
	lastBlacklist := 0
	shrunkTo := func() int {
		n := 0
		for _, w := range workers {
			if !w.gone() {
				n++
			}
		}
		return n
	}
	for shrunkTo() > 2 {
		if n := len(coord.Requirements().BlacklistedNodes()); n < lastBlacklist {
			t.Fatalf("node blacklist shrank between rounds: %d -> %d", lastBlacklist, n)
		} else {
			lastBlacklist = n
		}
		if time.Now().After(deadline) {
			t.Fatalf("repeated shrinks stalled with %d workers left (blacklist %d)",
				shrunkTo(), lastBlacklist)
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stop1)
	if master.gone() {
		t.Fatal("protected master was evicted")
	}
	evictedCount := len(ids) - shrunkTo()
	if got := len(coord.Requirements().BlacklistedNodes()); got != evictedCount {
		t.Errorf("blacklist has %d nodes, %d were evicted", got, evictedCount)
	}

	// Phase 2: the survivors are suddenly fully busy — WAE above
	// E_max, so the coordinator asks for more nodes. The veto handed
	// to the provisioner must reject every evicted node.
	var survivors []*scriptWorker
	for _, w := range workers {
		if !w.gone() {
			survivors = append(survivors, w)
		}
	}
	stop2 := make(chan struct{})
	defer close(stop2)
	feedReports(t, fab, stop2, 0, func(w *scriptWorker, start, end float64) metrics.Report {
		dur := end - start
		return metrics.Report{Node: w.id, Cluster: w.cluster, Start: start + 100, End: end + 100,
			Speed: 1, BusySec: 0.95 * dur, IdleSec: 0.05 * dur}
	}, survivors)

	deadline = time.Now().Add(10 * time.Second)
	for {
		calls, vetoed := prov.snapshot()
		if calls > 0 {
			missing := 0
			for _, w := range workers {
				if w.gone() && !vetoed[w.id] {
					missing++
				}
			}
			if missing == 0 {
				break // every evicted node was barred from re-entry
			}
		}
		if time.Now().After(deadline) {
			calls, vetoed := prov.snapshot()
			for _, h := range coord.History() {
				t.Logf("t=%.2f WAE=%.3f nodes=%d stats=%d action=%q (+%d -%d) %s",
					h.Time, h.WAE, h.Nodes, h.Stats, h.Action, h.Added, h.Removed, h.Detail)
			}
			t.Fatalf("provisioner never saw all evicted nodes vetoed (calls=%d vetoed=%v blacklist=%v)",
				calls, vetoed, coord.Requirements().BlacklistedNodes())
		}
		time.Sleep(30 * time.Millisecond)
	}
}
