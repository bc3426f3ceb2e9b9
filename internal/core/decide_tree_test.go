package core_test

// The Figure-2 cluster rules, the only-cluster guard and bootstrap run
// in the coordinator tree's RootKernel, so these tests decide one period
// there: one uncapped SubKernel per cluster, its Summarize, and a
// RootKernel that Ingests every summary and Ticks.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
)

const period = 100 // seconds per monitoring period

// grantAll grants every provision and evicts every victim; it lists no
// cluster roster, so a cluster eviction removes the cluster's reporting
// nodes.
type grantAll struct{ evicted []core.NodeID }

func (a *grantAll) Provision(n int, _ float64, _ coord.Veto) int { return n }
func (a *grantAll) Evict(victims []core.NodeID, _ string) []core.NodeID {
	a.evicted = append(a.evicted, victims...)
	return victims
}
func (a *grantAll) ObservedBandwidth(core.ClusterID) float64 { return 0 }
func (a *grantAll) Annotate(string)                          {}

// decide runs one period of the coordinator tree over stats, each node
// reporting its fractions of one period, and returns the period's
// record and the evicted nodes in eviction order.
func decide(t *testing.T, cfg core.Config, stats []core.NodeStats) (coord.PeriodRecord, []core.NodeID) {
	t.Helper()
	act := &grantAll{}
	root, err := coord.NewRoot(coord.Config{Engine: &cfg}, act)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[core.ClusterID]*coord.SubKernel{}
	members := map[core.ClusterID][]core.NodeID{}
	var clusters []core.ClusterID
	for _, s := range stats {
		sub, ok := subs[s.Cluster]
		if !ok {
			sub = coord.NewSubKernel(s.Cluster, 0, cfg.Weights)
			subs[s.Cluster] = sub
			clusters = append(clusters, s.Cluster)
		}
		sub.Report(metrics.Report{
			Node: s.Node, Cluster: s.Cluster, Start: 0, End: period,
			BusySec: period * (1 - s.Idle - s.IntraComm - s.InterComm),
			IdleSec: period * s.Idle, IntraSec: period * s.IntraComm, InterSec: period * s.InterComm,
			Speed: s.Speed, Links: s.Links,
		})
		members[s.Cluster] = append(members[s.Cluster], s.Node)
	}
	for _, c := range clusters {
		root.Ingest(subs[c].Summarize(period, members[c]))
	}
	rec := root.Tick(period, clusters, len(stats))
	return rec, act.evicted
}

// congested is three equally overloaded clusters whose overhead alone
// cannot tell them apart; C's access link is congested: every pair
// with C shows a few KB/s, while A<->B moves 10 MB/s.
func congested() []core.NodeStats {
	mk := func(node core.NodeID, cluster core.ClusterID, links map[core.ClusterID]core.LinkSample) core.NodeStats {
		return core.NodeStats{Node: node, Cluster: cluster, Speed: 1, Idle: 0.9, Links: links}
	}
	return []core.NodeStats{
		mk("a0", "A", map[core.ClusterID]core.LinkSample{
			"B": {Seconds: 2, Bytes: 20e6}, // 10 MB/s
			"C": {Seconds: 50, Bytes: 4e5}, // 8 KB/s
		}),
		mk("b0", "B", map[core.ClusterID]core.LinkSample{
			"A": {Seconds: 1, Bytes: 12e6}, // 12 MB/s
			"C": {Seconds: 40, Bytes: 3e5}, // 7.5 KB/s
		}),
		mk("c0", "C", map[core.ClusterID]core.LinkSample{
			"A": {Seconds: 60, Bytes: 5e5},
			"B": {Seconds: 55, Bytes: 4e5},
		}),
	}
}

func TestDecideDropsSaturatedCluster(t *testing.T) {
	var stats []core.NodeStats
	for i := 0; i < 8; i++ {
		stats = append(stats, core.NodeStats{
			Node: core.NodeID(rune('a' + i)), Cluster: "ok", Speed: 10, Idle: 0.6,
		})
	}
	for i := 0; i < 4; i++ {
		stats = append(stats, core.NodeStats{
			Node: core.NodeID(rune('p' + i)), Cluster: "throttled", Speed: 10,
			Idle: 0.2, InterComm: 0.75,
		})
	}
	rec, evicted := decide(t, core.DefaultConfig(), stats)
	if rec.Action != "remove-cluster" {
		t.Fatalf("action = %q, want remove-cluster (%s)", rec.Action, rec.Detail)
	}
	var cluster string
	var interComm float64
	if _, err := fmt.Sscanf(rec.Detail, "cluster %s inter-cluster overhead %f%%", &cluster, &interComm); err != nil {
		t.Fatalf("detail %q: %v", rec.Detail, err)
	}
	if cluster != "throttled" {
		t.Errorf("evacuated cluster %q, want throttled", cluster)
	}
	if len(evicted) != 4 || rec.Removed != 4 {
		t.Errorf("cluster eviction should remove its 4 members, got %v (removed %d)", evicted, rec.Removed)
	}
	for _, id := range evicted {
		if id < "p" {
			t.Errorf("evicted %v from the healthy cluster", id)
		}
	}
	if interComm < 74 {
		t.Errorf("cluster inter-cluster overhead = %v%%, want ~75%%", interComm)
	}
}

func TestDecideNeverDropsOnlyCluster(t *testing.T) {
	var stats []core.NodeStats
	for i := 0; i < 4; i++ {
		stats = append(stats, core.NodeStats{
			Node: core.NodeID(rune('a' + i)), Cluster: "only", Speed: 10,
			Idle: 0.2, InterComm: 0.7,
		})
	}
	rec, evicted := decide(t, core.DefaultConfig(), stats)
	if rec.Action == "remove-cluster" || len(evicted) >= len(stats) {
		t.Fatalf("must not evacuate the only cluster: %+v, evicted %v", rec, evicted)
	}
}

func TestDecideBootstrapsFromZeroNodes(t *testing.T) {
	rec, _ := decide(t, core.DefaultConfig(), nil)
	if rec.Action != "add" || rec.Added != 1 {
		t.Fatalf("empty stats should bootstrap with one node: %+v", rec)
	}
}

// The tree evacuates the congested cluster via the bandwidth rule even
// when per-node overhead alone would be ambiguous.
func TestDecideBandwidthRuleEvictsCulprit(t *testing.T) {
	rec, evicted := decide(t, core.DefaultConfig(), congested())
	if rec.Action != "remove-cluster" {
		t.Fatalf("action = %q (%s), want remove-cluster", rec.Action, rec.Detail)
	}
	var cluster string
	var measured float64
	if _, err := fmt.Sscanf(rec.Detail, "cluster %s best-pair bandwidth %f B/s", &cluster, &measured); err != nil {
		t.Fatalf("detail %q: %v", rec.Detail, err)
	}
	if cluster != "C" || len(evicted) != 1 || evicted[0] != "c0" {
		t.Errorf("evacuated cluster %q (nodes %v), want C (c0)", cluster, evicted)
	}
	if measured <= 0 || measured > 1e4 {
		t.Errorf("measured bandwidth = %v", measured)
	}
}

func TestDecideBandwidthRuleDisabled(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ClusterDropBWRatio = 0
	rec, _ := decide(t, cfg, congested())
	if rec.Action == "remove-cluster" || strings.Contains(rec.Detail, "best-pair bandwidth") {
		t.Fatalf("bandwidth rule should be disabled: %+v", rec)
	}
}
