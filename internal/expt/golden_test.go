package expt

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/workload"
)

// periodLogDigest runs p and hashes everything the coordinator decided:
// every period record in full (health to six decimals, the reason
// string verbatim), then what the run had learned by its last tick.
// Floats are printed, not hashed raw, so a change of summation order
// that moves only the last ulp of a WAE does not count as a drift; a
// moved decision, census, reason string or learned bound does.
func periodLogDigest(t *testing.T, p des.Params) (digest string, log string) {
	t.Helper()
	var reqs *core.Requirements
	p.Observe = func(_ des.PeriodRecord, r *core.Requirements, _ map[core.ClusterID]int) { reqs = r }
	res, err := des.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pr := range res.Periods {
		fmt.Fprintf(&b, "%.3f %.6f %d %d %q %q +%d -%d\n",
			pr.Time, pr.WAE, pr.Nodes, pr.Stats, pr.Action, pr.Detail, pr.Added, pr.Removed)
	}
	var nodes []core.NodeID
	if reqs != nil {
		nodes = reqs.BlacklistedNodes()
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	}
	clusters := append([]core.ClusterID(nil), res.BlacklistedClusters...)
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	fmt.Fprintf(&b, "completed=%v final=%d blacklisted nodes=%v clusters=%v min bandwidth=%.3f\n",
		res.Completed, res.FinalNodes, nodes, clusters, res.MinBandwidth)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), b.String()
}

// uniformWorld is a flat-kernel run on clusters x perCluster identical
// nodes whose first cluster sits behind a throttled uplink, so the log
// holds a whole-cluster eviction and the growth that follows it.
func uniformWorld(clusters, perCluster int) des.Params {
	var t topo.Topology
	var initial []des.Alloc
	for i := 0; i < clusters; i++ {
		c := topo.Cluster{
			ID: core.ClusterID(fmt.Sprintf("g%d", i)), Nodes: 2 * perCluster, Speed: 1,
			LANLatency: topo.LANLatency, LANBandwidth: topo.FastEthernetBandwidth,
			WANLatency: topo.WANLatencyOneWay, UplinkBandwidth: topo.BackboneUplink,
		}
		t.Clusters = append(t.Clusters, c)
		initial = append(initial, des.Alloc{Cluster: c.ID, Count: perCluster})
	}
	cfg := core.DefaultConfig()
	return des.Params{
		Topo:    t,
		Spec:    workload.BarnesHut(100000, 40),
		Seed:    7,
		Initial: initial,
		Mon:     des.DefaultMonitor(),
		Adapt:   &cfg,
		Events: []des.Injection{{At: 200, Kind: des.InjShapeUplink, Cluster: "g0",
			Bandwidth: 100e3, Label: "g0 uplink throttled"}},
	}
}

// TestPeriodLogGolden pins the coordinator's decisions on the worlds
// where every rule fires: scenario 4 (whole-cluster eviction, learned
// bandwidth), 5 (slow nodes and the bad link together), 8 (the
// measured-bandwidth culprit rule), 10 (the streaming objective) and a
// 4x10 uniform world whose second eviction takes the protected-only
// fallback. A digest moves only when a decision, a census, a reason
// string or a learned bound does — seen here in a second instead of in a
// benchmark run; re-record one only with the reason in CHANGES.md.
func TestPeriodLogGolden(t *testing.T) {
	want := map[string]string{
		"4x10":        "506f380adf7be4b5ff03ecc60e97dea837aff5984fd902f6f7034c0522af926a",
		"scenario 4":  "78d33a82d1b6606d8772dedd4c5e69ba572cabb7267b7070d597c4e2cc4a096b",
		"scenario 5":  "0ebedeeb0e012988617220efb8a8416a5503eca52df8592f0b0a6402f9d30c09",
		"scenario 8":  "5f78344567666389727034f85d9e935608565a8cb5ef6a31615819de18050312",
		"scenario 10": "6093010c9be9ebe5b3460d010ef2c9e224c4c2353caa3e21638054849d127a62",
	}
	type run struct {
		name string
		p    func() des.Params
	}
	runs := []run{{"4x10", func() des.Params { return uniformWorld(4, 10) }}}
	for _, id := range []string{"4", "5", "8", "10"} {
		sc, ok := ByID(id)
		if !ok {
			t.Fatalf("scenario %s missing", id)
		}
		runs = append(runs, run{"scenario " + id, func() des.Params { return sc.Build(Adaptive, sc.Seed) }})
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			got, log := periodLogDigest(t, r.p())
			if got != want[r.name] {
				t.Errorf("period log digest %s, want %s\n%s", got, want[r.name], log)
			}
		})
	}
}
