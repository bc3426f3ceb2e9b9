package coord

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

const dur = 100 // seconds per monitoring period in these scripts

// rep builds one node's period report; idle/intra/inter are seconds out
// of the period, so idle=60 means a 0.60 idle fraction.
func rep(node core.NodeID, cluster core.ClusterID, period int, idle, intra, inter, speed, interBW float64) metrics.Report {
	start := float64(period) * dur
	return metrics.Report{
		Node: node, Cluster: cluster,
		Start: start, End: start + dur,
		BusySec: dur - idle - intra - inter,
		IdleSec: idle, IntraSec: intra, InterSec: inter,
		Speed: speed, InterBandwidth: interBW,
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// scriptedActuator is the minimal fake runtime: it grants every
// provision, evicts every victim, and records the calls.
type scriptedActuator struct {
	mu         sync.Mutex
	observed   float64 // ObservedBandwidth return value
	provisions []int
	evictions  [][]core.NodeID
	labels     []string
}

func (a *scriptedActuator) Provision(n int, minBandwidth float64, veto Veto) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.provisions = append(a.provisions, n)
	return n
}

func (a *scriptedActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.evictions = append(a.evictions, append([]core.NodeID(nil), victims...))
	return victims
}

func (a *scriptedActuator) ObservedBandwidth(core.ClusterID) float64 { return a.observed }

func (a *scriptedActuator) Annotate(label string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.labels = append(a.labels, label)
}

func newKernel(t *testing.T, cfg Config, act Actuator) *Kernel {
	t.Helper()
	if cfg.Engine == nil && !cfg.MonitorOnly {
		c := core.DefaultConfig()
		cfg.Engine = &c
	}
	k, err := New(cfg, act)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// --- smoothing (the two-period window both runtimes must share) -------

// TestSmoothTwoPeriodAverage pins the smoothing arithmetic: overhead
// fractions are averaged, link samples are merged by summation, the
// speed is the latest benchmark measurement.
func TestSmoothTwoPeriodAverage(t *testing.T) {
	cur := core.NodeStats{Node: "n", Cluster: "A", Speed: 120,
		Idle: 0.2, IntraComm: 0.1, InterComm: 0.4,
		Links: map[core.ClusterID]core.LinkSample{"B": {Seconds: 2, Bytes: 4e6}}}
	prev := core.NodeStats{Node: "n", Cluster: "A", Speed: 80,
		Idle: 0.6, IntraComm: 0.3, InterComm: 0.2,
		Links: map[core.ClusterID]core.LinkSample{
			"B": {Seconds: 1, Bytes: 1e6},
			"C": {Seconds: 5, Bytes: 9e6},
		}}
	got := smooth(cur, prev)
	if !approx(got.Idle, 0.4) || !approx(got.IntraComm, 0.2) || !approx(got.InterComm, 0.3) {
		t.Errorf("smoothed fractions = %.3f/%.3f/%.3f, want 0.400/0.200/0.300",
			got.Idle, got.IntraComm, got.InterComm)
	}
	if got.Speed != 120 {
		t.Errorf("smoothed speed = %v, want the latest measurement 120", got.Speed)
	}
	if l := got.Links["B"]; l.Seconds != 3 || l.Bytes != 5e6 {
		t.Errorf("link B merged to %+v, want Seconds 3 Bytes 5e6", l)
	}
	if l := got.Links["C"]; l.Seconds != 5 || l.Bytes != 9e6 {
		t.Errorf("link C merged to %+v, want Seconds 5 Bytes 9e6", l)
	}
}

// TestTickSmoothsAcrossTwoPeriods is the regression test for the old
// real-runtime coordinator, which decided on raw single-period stats
// while the simulator smoothed: the kernel must report the two-period
// average. With idle fractions 0.60 then 0.90 the raw second-period WAE
// would be 0.10; the smoothed value is 1-(0.60+0.90)/2 = 0.25.
func TestTickSmoothsAcrossTwoPeriods(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	live := []core.NodeID{"n1"}

	k.Report(rep("n1", "A", 0, 60, 0, 0, 100, 0))
	r1 := k.Tick(dur, live)
	if !approx(r1.WAE, 0.40) {
		t.Fatalf("first period WAE = %v, want raw 0.40", r1.WAE)
	}

	k.Report(rep("n1", "A", 1, 90, 0, 0, 100, 0))
	r2 := k.Tick(2*dur, live)
	if !approx(r2.WAE, 0.25) {
		t.Fatalf("second period WAE = %v, want two-period average 0.25 (raw would be 0.10)", r2.WAE)
	}
}

// --- reset after acting -----------------------------------------------

// TestResetReportsAfterAction: once the kernel acts, the stored reports
// describe the pre-action configuration; deciding on them again would
// chain a second action off stale data. This is the divergence the old
// runtimes had (the simulator reset, the real runtime did not).
func TestResetReportsAfterAction(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	old := []core.NodeID{"n1", "n2"}
	for _, n := range old {
		k.Report(rep(n, "A", 0, 10, 0, 0, 100, 0)) // WAE 0.90 > EMax
	}
	r1 := k.Tick(dur, old)
	if r1.Action != "add" || r1.Added != 2 {
		t.Fatalf("high WAE did not grow: %+v", r1)
	}

	// Next period: the grants joined but nobody has reported yet. A
	// kernel that kept the stale reports would see WAE 0.90 again and
	// request MORE nodes.
	live := []core.NodeID{"n1", "n2", "g0", "g1"}
	r2 := k.Tick(2*dur, live)
	if r2.Action != "" || r2.Added != 0 {
		t.Fatalf("stale pre-action reports chained a second action: %+v", r2)
	}
	if len(act.provisions) != 1 {
		t.Fatalf("provision calls = %v, want exactly one", act.provisions)
	}
}

// TestResetSmoothingWindowAfterAction: the smoothing window is part of
// the stale state. If the pre-action period survived as the "previous"
// half of the average, the first post-action report (idle 0.60, WAE
// 0.40, inside the band) would be smoothed with the pre-action idle
// 0.10 to WAE 0.65 — above EMax, triggering a spurious grow.
func TestResetSmoothingWindowAfterAction(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	old := []core.NodeID{"n1", "n2"}
	for _, n := range old {
		k.Report(rep(n, "A", 0, 10, 0, 0, 100, 0))
	}
	if r := k.Tick(dur, old); r.Action != "add" {
		t.Fatalf("setup action = %+v, want add", r)
	}

	live := []core.NodeID{"n1", "n2", "g0", "g1"}
	for _, n := range old {
		k.Report(rep(n, "A", 1, 60, 0, 0, 100, 0))
	}
	r2 := k.Tick(2*dur, live)
	if !approx(r2.WAE, 0.40) {
		t.Fatalf("post-action WAE = %v, want raw 0.40 (stale smoothing window would give 0.65)", r2.WAE)
	}
	if r2.Action != "none" {
		t.Fatalf("post-action decision = %+v, want none", r2)
	}
}

// --- cross-runtime parity ---------------------------------------------

// runtimeFake is what the parity test needs from a fake runtime: the
// Actuator contract plus its own view of the live set and timeline.
type runtimeFake interface {
	Actuator
	live() []core.NodeID
	notes() []string
}

// desStyleActuator mimics the simulator driver: an ordered node list
// mutated synchronously inside the event loop.
type desStyleActuator struct {
	order  []core.NodeID
	next   int
	labels []string
}

func (a *desStyleActuator) Provision(n int, minBandwidth float64, veto Veto) int {
	granted := 0
	for i := 0; i < n; i++ {
		id := core.NodeID(fmt.Sprintf("g%d", a.next))
		a.next++
		if veto != nil && veto(id, "A") {
			continue
		}
		a.order = append(a.order, id)
		granted++
	}
	return granted
}

func (a *desStyleActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	var evicted []core.NodeID
	for _, v := range victims {
		for i, id := range a.order {
			if id == v {
				a.order = append(a.order[:i], a.order[i+1:]...)
				evicted = append(evicted, v)
				break
			}
		}
	}
	return evicted
}

func (a *desStyleActuator) ObservedBandwidth(core.ClusterID) float64 { return 0 }
func (a *desStyleActuator) Annotate(l string)                        { a.labels = append(a.labels, l) }
func (a *desStyleActuator) live() []core.NodeID                      { return append([]core.NodeID(nil), a.order...) }
func (a *desStyleActuator) notes() []string                          { return a.labels }

// adaptStyleActuator mimics the real-runtime driver: registry-style
// membership (an unordered set), per-node leave signals, no NWS-style
// link monitor.
type adaptStyleActuator struct {
	members map[core.NodeID]bool
	next    int
	labels  []string
}

func (a *adaptStyleActuator) Provision(n int, minBandwidth float64, veto Veto) int {
	granted := 0
	for i := 0; i < n; i++ {
		id := core.NodeID(fmt.Sprintf("g%d", a.next))
		a.next++
		if veto != nil && veto(id, "A") {
			continue
		}
		a.members[id] = true
		granted++
	}
	return granted
}

func (a *adaptStyleActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	evicted := make([]core.NodeID, 0, len(victims))
	for _, v := range victims {
		if !a.members[v] {
			continue // signal fails: the node already left
		}
		delete(a.members, v)
		evicted = append(evicted, v)
	}
	return evicted
}

func (a *adaptStyleActuator) ObservedBandwidth(core.ClusterID) float64 { return 0 }
func (a *adaptStyleActuator) Annotate(l string)                        { a.labels = append(a.labels, l) }
func (a *adaptStyleActuator) notes() []string                          { return a.labels }

func (a *adaptStyleActuator) live() []core.NodeID {
	out := make([]core.NodeID, 0, len(a.members))
	for id := range a.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// parityReport scripts one node's report for a period. Nodes whose ID
// starts with "b" live in cluster B; everything else (including grants)
// in cluster A.
func parityReport(p int, id core.NodeID) metrics.Report {
	cluster := core.ClusterID("A")
	if strings.HasPrefix(string(id), "b") {
		cluster = "B"
	}
	switch {
	case p == 0: // busy grid: WAE 0.90 → grow
		return rep(id, cluster, p, 10, 0, 0, 100, 0)
	case p == 1: // in band: WAE 0.40 → none
		return rep(id, cluster, p, 60, 0, 0, 100, 0)
	case p == 2: // cluster B saturates its uplink → evacuate it
		if cluster == "B" {
			bw := 0.8e6
			if id == "b2" {
				bw = 1.2e6
			}
			return rep(id, cluster, p, 35, 0, 60, 100, bw)
		}
		return rep(id, cluster, p, 88, 0, 2, 100, 0)
	case p == 3: // B is down to the protected b1 and still saturated
		if cluster == "B" {
			return rep(id, cluster, p, 55, 0, 40, 100, 0.8e6)
		}
		return rep(id, cluster, p, 88, 0, 2, 100, 0)
	case p == 4: // idle pair: WAE 0.10 → remove the worst node
		return rep(id, cluster, p, 90, 0, 0, 100, 0)
	default: // the survivor works at WAE 0.40 → none
		return rep(id, cluster, p, 60, 0, 0, 100, 0)
	}
}

func runParityScript(t *testing.T, rt runtimeFake) ([]PeriodRecord, *Kernel) {
	t.Helper()
	k := newKernel(t, Config{}, rt)
	k.SetProtected("b1")
	var recs []PeriodRecord
	for p := 0; p < 6; p++ {
		for _, id := range rt.live() {
			k.Report(parityReport(p, id))
		}
		recs = append(recs, k.Tick(float64((p+1)*dur), rt.live()))
	}
	return recs, k
}

// TestCrossRuntimeParity feeds an identical multi-period stats script
// to two kernels driven by mechanically different runtimes (the
// simulator's ordered synchronous world vs the real runtime's
// registry-style membership) and requires byte-identical period
// records, annotations, and learned requirements. This is the property
// the refactor exists for: the adaptation policy cannot diverge between
// the runtimes because there is only one of it.
func TestCrossRuntimeParity(t *testing.T) {
	start := []core.NodeID{"a1", "a2", "b1", "b2"}
	des := &desStyleActuator{order: append([]core.NodeID(nil), start...), next: 0}
	ada := &adaptStyleActuator{members: map[core.NodeID]bool{}, next: 0}
	for _, id := range start {
		ada.members[id] = true
	}

	desRecs, desKern := runParityScript(t, des)
	adaRecs, adaKern := runParityScript(t, ada)

	// The script walks the whole policy: grow, hold, evacuate the badly
	// connected cluster (only b2 can go, b1 is protected), evacuate it
	// again when only the protected node is left (the worst-node
	// fallback), shrink, hold. The WAE values pin the smoothing: period
	// 2 decides on the two-period average with period 1, periods that
	// follow an action decide on raw post-reset statistics.
	want := []struct {
		wae            float64
		nodes          int
		action         string
		added, removed int
	}{
		{0.9000, 4, "add", 4, 0},
		{0.4000, 8, "none", 0, 0},
		{0.24375, 8, "remove-cluster", 0, 1},  // smoothed with period 1
		{0.65 / 7, 7, "remove-cluster", 0, 5}, // b1 protected → worst-node fallback
		{0.1000, 2, "remove-nodes", 0, 1},
		{0.4000, 1, "none", 0, 0},
	}
	if len(desRecs) != len(want) {
		t.Fatalf("got %d records, want %d", len(desRecs), len(want))
	}
	for i, w := range want {
		r := desRecs[i]
		if !approx(r.WAE, w.wae) || r.Nodes != w.nodes || r.Action != w.action ||
			r.Added != w.added || r.Removed != w.removed {
			t.Errorf("period %d: got %+v, want WAE %.4f nodes %d action %q +%d -%d",
				i, r, w.wae, w.nodes, w.action, w.added, w.removed)
		}
	}

	if d, a := fmt.Sprintf("%#v", desRecs), fmt.Sprintf("%#v", adaRecs); d != a {
		t.Errorf("period records diverge between runtimes:\n des: %s\nreal: %s", d, a)
	}
	if d, a := des.notes(), ada.notes(); !reflect.DeepEqual(d, a) {
		t.Errorf("annotations diverge:\n des: %q\nreal: %q", d, a)
	}
	if d, a := des.live(), ada.live(); !reflect.DeepEqual(d, a) {
		t.Errorf("final live sets diverge: des %v, real %v", d, a)
	} else if !reflect.DeepEqual(d, []core.NodeID{"b1"}) {
		t.Errorf("final live set = %v, want the protected [b1]", d)
	}

	dr, ar := desKern.Requirements(), adaKern.Requirements()
	if !approx(dr.MinBandwidth(), 1e6) || !approx(ar.MinBandwidth(), 1e6) {
		t.Errorf("learned MinBandwidth des %v real %v, want the 1e6 report mean on both",
			dr.MinBandwidth(), ar.MinBandwidth())
	}
	if d, a := dr.BlacklistedClusters(), ar.BlacklistedClusters(); !reflect.DeepEqual(d, a) ||
		len(d) != 1 || d[0] != "B" {
		t.Errorf("blacklisted clusters des %v real %v, want [B] on both", d, a)
	}
}

// --- learned bandwidth: capacity-preferred fallback order -------------

// TestLearnClusterBandwidthFallbackOrder pins the source order for the
// learned minimum-bandwidth bound when a cluster is evacuated: the
// runtime's observed link capacity first, then the mean per-report
// achieved throughput, then the culprit rule's measured pair bandwidth.
func TestLearnClusterBandwidthFallbackOrder(t *testing.T) {
	mk := func(observed float64, withReports bool) *RootKernel {
		k := newKernel(t, Config{MonitorOnly: true}, &scriptedActuator{observed: observed})
		if withReports {
			k.Report(rep("b1", "B", 0, 55, 0, 40, 100, 0.8e6))
			k.Report(rep("b2", "B", 0, 55, 0, 40, 100, 1.2e6))
			k.Report(rep("a1", "A", 0, 55, 0, 40, 100, 9e9)) // other cluster: ignored
			k.Tick(dur, []core.NodeID{"a1", "b1", "b2"})
		}
		return k.root
	}

	rk := mk(5e6, true)
	rk.learnClusterBandwidth("B", 7e5)
	if got := rk.Requirements().MinBandwidth(); !approx(got, 5e6) {
		t.Errorf("with observed capacity: learned %v, want the capacity 5e6", got)
	}

	rk = mk(0, true)
	rk.learnClusterBandwidth("B", 7e5)
	if got := rk.Requirements().MinBandwidth(); !approx(got, 1e6) {
		t.Errorf("without capacity: learned %v, want the 1e6 mean of the cluster's reports", got)
	}

	rk = mk(0, false)
	rk.learnClusterBandwidth("B", 7e5)
	if got := rk.Requirements().MinBandwidth(); !approx(got, 7e5) {
		t.Errorf("without capacity or reports: learned %v, want the measured pair bandwidth 7e5", got)
	}

	rk = mk(0, false)
	rk.learnClusterBandwidth("B", 0)
	if got := rk.Requirements().MinBandwidth(); got != 0 {
		t.Errorf("with no bandwidth information: learned %v, want no bound", got)
	}
}

// --- bootstrap, monitor-only, protection ------------------------------

func TestBootstrapWhenComputationDied(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	r := k.Tick(dur, nil)
	if r.Action != "add" || r.Added != 1 || !strings.Contains(r.Detail, "bootstrap") {
		t.Fatalf("empty live set did not bootstrap: %+v", r)
	}
	// Live nodes that simply have not reported yet must NOT trigger a
	// bootstrap (first-period skew is normal).
	r2 := k.Tick(2*dur, []core.NodeID{"n1"})
	if r2.Action != "" || len(act.provisions) != 1 {
		t.Fatalf("unreported live node triggered an action: %+v (provisions %v)", r2, act.provisions)
	}
}

func TestMonitorOnlyRecordsWithoutActing(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{MonitorOnly: true}, act)
	live := []core.NodeID{"n1", "n2", "n3"}
	for _, n := range live {
		k.Report(rep(n, "A", 0, 90, 0, 0, 100, 0)) // WAE 0.10: an acting kernel would shrink
	}
	r := k.Tick(dur, live)
	if r.Action != "" || r.Added != 0 || r.Removed != 0 {
		t.Fatalf("monitor-only kernel acted: %+v", r)
	}
	if !approx(r.WAE, 0.10) || !strings.Contains(r.Detail, "on 3 nodes") {
		t.Fatalf("monitor-only record = %+v, want WAE 0.10 noted on 3 nodes", r)
	}
	// Not even a bootstrap when the computation dies.
	if r := k.Tick(2*dur, nil); r.Action != "" || len(act.provisions) != 0 {
		t.Fatalf("monitor-only kernel bootstrapped: %+v (provisions %v)", r, act.provisions)
	}
}

func TestProtectedNodesSurvive(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	k.SetProtected("n1")
	live := []core.NodeID{"n1", "n2"}
	// WAE 0.10 on 2 nodes → remove 1 worst; the tie-ranked worst is n1,
	// which is protected, so nothing may be evicted.
	for _, n := range live {
		k.Report(rep(n, "A", 0, 90, 0, 0, 100, 0))
	}
	r := k.Tick(dur, live)
	if r.Action != "remove-nodes" {
		t.Fatalf("decision = %+v, want remove-nodes", r)
	}
	if r.Removed != 0 || len(act.evictions) != 0 {
		t.Fatalf("protected node was put up for eviction: %+v (evictions %v)", r, act.evictions)
	}
	if len(k.Requirements().BlacklistedNodes()) != 0 {
		t.Fatal("nothing left, but nodes were blacklisted")
	}
}

// --- report freshness --------------------------------------------------

func TestReportKeepsFreshest(t *testing.T) {
	k := newKernel(t, Config{MonitorOnly: true}, &scriptedActuator{})
	k.Report(rep("n1", "A", 2, 10, 0, 0, 100, 0))
	k.Report(rep("n1", "A", 1, 90, 0, 0, 100, 0)) // older: batched redelivery
	if got := k.Reports()["n1"]; got.IdleSec != 10 {
		t.Fatalf("stale report overwrote the fresh one: %+v", got)
	}
}

// --- opportunistic migration ------------------------------------------

type migratingActuator struct {
	scriptedActuator
	cluster core.ClusterID
	speed   float64
	free    int
}

func (a *migratingActuator) BestAvailable(veto Veto) (core.ClusterID, float64, int) {
	return a.cluster, a.speed, a.free
}

func (a *migratingActuator) ProvisionFrom(c core.ClusterID, n int, minBandwidth float64, veto Veto) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.provisions = append(a.provisions, n)
	return n
}

func TestOpportunisticMigration(t *testing.T) {
	act := &migratingActuator{cluster: "F", speed: 200, free: 2}
	k := newKernel(t, Config{Opportunistic: true}, act)
	k.SetProtected("n1")
	live := []core.NodeID{"n1", "n2", "n3"}
	for _, n := range live {
		k.Report(rep(n, "A", 0, 60, 0, 0, 100, 0)) // WAE 0.40: inside the band
	}
	r := k.Tick(dur, live)
	// A free cluster 2x faster than every live node: migrate onto it
	// even though the WAE would not trigger any adaptation.
	if r.Action != "opportunistic-migrate" || r.Added != 2 || r.Removed != 2 {
		t.Fatalf("migration record = %+v, want opportunistic-migrate +2 -2", r)
	}
	if len(act.evictions) != 1 || !reflect.DeepEqual(act.evictions[0], []core.NodeID{"n2", "n3"}) {
		t.Fatalf("evicted %v, want the slow unprotected [n2 n3]", act.evictions)
	}

	// The same situation with a plain (non-Migrator) actuator stays put:
	// the real scheduler cannot rank idle resources by speed.
	plain := &scriptedActuator{}
	kp := newKernel(t, Config{Opportunistic: true}, plain)
	for _, n := range live {
		kp.Report(rep(n, "A", 0, 60, 0, 0, 100, 0))
	}
	if r := kp.Tick(dur, live); r.Action != "none" || len(plain.provisions) != 0 {
		t.Fatalf("non-migrating runtime migrated: %+v", r)
	}
}

// --- concurrency (the real runtime feeds Report from transport
// handlers while its ticker calls Tick; must hold under -race) ---------

func TestConcurrentReportAndTick(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{}, act)
	live := []core.NodeID{"n0", "n1", "n2", "n3"}
	var wg sync.WaitGroup
	for w := 0; w < len(live); w++ {
		wg.Add(1)
		go func(id core.NodeID) {
			defer wg.Done()
			for p := 0; p < 200; p++ {
				k.Report(rep(id, "A", p, 60, 0, 0, 100, 0))
			}
		}(live[w])
	}
	for p := 0; p < 50; p++ {
		k.Tick(float64((p+1)*dur), live)
	}
	wg.Wait()
	if got := len(k.Reports()); got != len(live) {
		t.Fatalf("kernel tracks %d reports, want %d", got, len(live))
	}
}

// --- fair-share yield (multi-job pool arbitration) --------------------

// TestFairShareYield: when the shared pool signals reclaim pressure,
// the kernel evicts that many of its WORST nodes even though the WAE
// is inside the band, does not blacklist them (they are healthy; the
// grid is merely contended), and never yields a protected node.
func TestFairShareYield(t *testing.T) {
	act := &scriptedActuator{}
	pressure := 2
	k := newKernel(t, Config{Pressure: func() int { return pressure }}, act)
	k.SetProtected("A/0")

	live := []core.NodeID{"A/0", "A/1", "B/0", "B/1"}
	// Healthy efficiencies; B's nodes carry more inter-cluster overhead
	// (the dominant badness term), so B/1 then B/0 are the worst two —
	// those must be the yield victims.
	feed := func(period int) {
		k.Report(rep("A/0", "A", period, 10, 2, 1, 100, 0))
		k.Report(rep("A/1", "A", period, 12, 2, 1, 100, 0))
		k.Report(rep("B/0", "B", period, 20, 2, 4, 100, 0))
		k.Report(rep("B/1", "B", period, 30, 2, 5, 100, 0))
	}
	feed(0)
	recA := k.Tick(dur, live)
	if recA.Action != "yield" || recA.Removed != 2 {
		t.Fatalf("want yield of 2, got action %q removed %d (%s)", recA.Action, recA.Removed, recA.Detail)
	}
	if len(act.evictions) != 1 {
		t.Fatalf("want one eviction call, got %v", act.evictions)
	}
	got := append([]core.NodeID(nil), act.evictions[0]...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []core.NodeID{"B/0", "B/1"}) {
		t.Fatalf("want worst nodes B/0+B/1 yielded, got %v", got)
	}
	// Yielded nodes are NOT blacklisted: the pool may hand them back.
	if bl := k.Requirements().BlacklistedNodes(); len(bl) != 0 {
		t.Fatalf("yield must not blacklist, got %v", bl)
	}
	// Pressure gone: the next tick decides normally (WAE in band -> none).
	pressure = 0
	feed(2)
	recB := k.Tick(3*dur, []core.NodeID{"A/0", "A/1"})
	if recB.Action == "yield" || recB.Removed != 0 {
		t.Fatalf("no pressure must mean no yield, got %+v", recB)
	}
}

// TestFairShareYieldSparesProtected: pressure larger than the number of
// evictable nodes yields only the unprotected ones.
func TestFairShareYieldSparesProtected(t *testing.T) {
	act := &scriptedActuator{}
	k := newKernel(t, Config{Pressure: func() int { return 5 }}, act)
	k.SetProtected("A/0")
	k.Report(rep("A/0", "A", 0, 10, 2, 2, 100, 0))
	k.Report(rep("A/1", "A", 0, 12, 2, 2, 100, 0))
	rec := k.Tick(dur, []core.NodeID{"A/0", "A/1"})
	if rec.Action != "yield" || rec.Removed != 1 {
		t.Fatalf("want yield of the single unprotected node, got %+v", rec)
	}
	if len(act.evictions) != 1 || len(act.evictions[0]) != 1 || act.evictions[0][0] != "A/1" {
		t.Fatalf("want A/1 evicted, got %v", act.evictions)
	}
}
