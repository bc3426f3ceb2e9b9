package expt

import (
	"crypto/sha256"
	"fmt"
	"os"
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

// uniformWorld is a run on clusters x perCluster identical
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
// fallback. Each world runs on the flat kernel and on the coordinator
// tree the live runtime ships, and the 4x10 world also at des_scale's
// proposal cap. A digest moves only when a decision, a census, a reason
// string or a learned bound does — seen here in a second instead of in a
// benchmark run. The digests live in testdata/periodlog.digest, which
// `make goldens` rewrites; re-record one only with the reason in
// CHANGES.md.
func TestPeriodLogGolden(t *testing.T) {
	want := readDigests(t, "testdata/periodlog.digest")
	type run struct {
		name string
		p    func() des.Params
	}
	worlds := []run{{"4x10", func() des.Params { return uniformWorld(4, 10) }}}
	for _, id := range []string{"4", "5", "8", "10"} {
		sc, ok := ByID(id)
		if !ok {
			t.Fatalf("scenario %s missing", id)
		}
		worlds = append(worlds, run{"scenario " + id, func() des.Params { return sc.Build(Adaptive, sc.Seed) }})
	}
	var runs []run
	for _, w := range worlds {
		w := w
		runs = append(runs, w, run{w.name + " tree", func() des.Params {
			p := w.p()
			p.Sharded = true
			return p
		}})
	}
	runs = append(runs, run{"4x10 tree cap8", func() des.Params {
		p := uniformWorld(4, 10)
		p.Sharded, p.ProposalCap = true, 8
		return p
	}})
	ran := make(map[string]bool, len(runs))
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			name := strings.TrimPrefix(t.Name(), "TestPeriodLogGolden/")
			ran[name] = true
			t.Parallel()
			got, log := periodLogDigest(t, r.p())
			if got != want[name] {
				t.Errorf("period log digest %s, want %s\n%s", got, want[name], log)
			}
		})
	}
	for name := range want {
		if !ran[name] {
			t.Errorf("testdata row %s names no run", name)
		}
	}
}

// readDigests reads a digest file: one "name digest" line per run, the
// name as go test prints the subtest's (spaces become underscores);
// blank lines and lines starting with # are skipped.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[f[0]] = f[1]
	}
	return want
}
