package coord

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/metrics"
)

// --- the Figure-2 decision golden --------------------------------------

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from what the coordinator tree decides")

const decisionsGolden = "testdata/decisions.golden"

// decisionFleet is one period's reports, decided once on a fresh tree
// under cfg (nil = core.DefaultConfig()). want, when set, is the action
// the fleet exists to show; the golden pins everything else.
type decisionFleet struct {
	name    string
	cfg     func(*core.Config)
	want    string
	reports []metrics.Report
}

func linked(r metrics.Report, peer core.ClusterID, sec, bytes float64) metrics.Report {
	r.Links = map[core.ClusterID]core.LinkSample{peer: {Seconds: sec, Bytes: bytes}}
	return r
}

// decisionFleets is the golden's table: named fleets for each rule of
// Figure 2 and its guards, the named ones again under the unweighted
// ablation, and 200 random fleets from seed 9.
func decisionFleets() []decisionFleet {
	fleets := []decisionFleet{
		{"empty fleet bootstraps", nil, "add", nil},
		{"grow", nil, "add", []metrics.Report{
			rep("a1", "A", 0, 10, 5, 0, 100, 0), rep("a2", "A", 0, 20, 0, 5, 80, 0), rep("b1", "B", 0, 15, 0, 0, 120, 0)}},
		{"hold", nil, "none", []metrics.Report{
			rep("a1", "A", 0, 55, 0, 0, 100, 0), rep("b1", "B", 0, 60, 0, 0, 100, 0)}},
		{"shrink worst nodes, slow and unmeasured", nil, "remove-nodes", []metrics.Report{
			rep("a1", "A", 0, 80, 0, 2, 100, 0), rep("a2", "A", 0, 85, 0, 1, 40, 0),
			rep("b1", "B", 0, 90, 0, 3, 100, 0), rep("b2", "B", 0, 70, 5, 0, 0, 0),
			rep("c1", "C", 0, 75, 0, 4, 60, 0)}},
		{"at the MinNodes floor", nil, "none", []metrics.Report{rep("a1", "A", 0, 95, 0, 0, 100, 0)}},
		{"inter-comm dominance evacuates the cluster", nil, "remove-cluster", []metrics.Report{
			rep("a1", "A", 0, 80, 0, 5, 100, 0), rep("a2", "A", 0, 80, 0, 5, 100, 0),
			rep("b1", "B", 0, 30, 0, 60, 100, 1e6), rep("b2", "B", 0, 35, 0, 55, 100, 1e6)}},
		{"dominance without a runner-up margin ranks nodes instead", nil, "remove-nodes", []metrics.Report{
			rep("a1", "A", 0, 50, 0, 40, 100, 0), rep("a2", "A", 0, 50, 0, 40, 100, 0),
			rep("b1", "B", 0, 45, 0, 45, 100, 0), rep("b2", "B", 0, 45, 0, 45, 100, 0)}},
		{"the only cluster is never evacuated", nil, "remove-nodes", []metrics.Report{
			rep("a1", "A", 0, 30, 0, 60, 100, 0), rep("a2", "A", 0, 30, 0, 60, 100, 0)}},
		{"measured pair bandwidth names the culprit", nil, "remove-cluster", []metrics.Report{
			linked(rep("d1", "D", 0, 85, 0, 5, 100, 0), "F", 0.5, 5e6),
			linked(rep("d2", "D", 0, 85, 0, 5, 100, 0), "F", 0.7, 6e6),
			linked(rep("e1", "E", 0, 85, 0, 5, 100, 0), "D", 2, 1e6),
			linked(rep("e2", "E", 0, 85, 0, 5, 100, 0), "D", 3, 1.1e6),
			linked(rep("f1", "F", 0, 85, 0, 5, 100, 0), "D", 0.3, 2e6),
			rep("f2", "F", 0, 85, 0, 5, 100, 0)}},
		{"a saturated uplink evacuates its cluster", nil, "remove-cluster", saturatedFleet()},
		{"one saturated cluster alone is kept", nil, "remove-nodes", []metrics.Report{
			rep("a", "only", 0, 20, 0, 70, 10, 0), rep("b", "only", 0, 20, 0, 70, 10, 0),
			rep("c", "only", 0, 20, 0, 70, 10, 0), rep("d", "only", 0, 20, 0, 70, 10, 0)}},
		{"MinNodes=4 holds at the floor", minNodes4, "none", homogeneousFleet(4, 95)},
		{"MinNodes=4 shrinks no further than the floor", minNodes4, "remove-nodes", homogeneousFleet(6, 95)},
		{"congested pair bandwidth evicts the culprit", nil, "remove-cluster", congestedFleet()},
		{"bandwidth rule disabled", func(c *core.Config) { c.ClusterDropBWRatio = 0 }, "remove-nodes", congestedFleet()},
		{"fast and slow nodes hold on the weighted band", nil, "none", []metrics.Report{
			rep("a1", "A", 0, 30, 0, 0, 100, 0), rep("a2", "A", 0, 30, 0, 0, 100, 0),
			rep("b1", "B", 0, 30, 0, 0, 10, 0), rep("b2", "B", 0, 30, 0, 0, 10, 0)}},
		{"slow nodes drag the weighted band below EMin", nil, "remove-nodes", []metrics.Report{
			rep("a1", "A", 0, 60, 0, 0, 100, 0), rep("b1", "B", 0, 60, 0, 0, 10, 0),
			rep("b2", "B", 0, 60, 0, 0, 10, 0), rep("b3", "B", 0, 60, 0, 0, 10, 0)}},
	}
	// The unweighted ablation sees speeds only through badness: the two
	// heterogeneous fleets above grow and hold under it.
	unweightedWant := map[string]string{
		"fast and slow nodes hold on the weighted band": "add",
		"slow nodes drag the weighted band below EMin":  "none",
	}
	for _, f := range fleets {
		u := f
		u.name = "unweighted: " + f.name
		u.cfg = func(c *core.Config) {
			if f.cfg != nil {
				f.cfg(c)
			}
			c.UnweightedEfficiency = true
		}
		if w, ok := unweightedWant[f.name]; ok {
			u.want = w
		}
		fleets = append(fleets, u)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		f := decisionFleet{name: fmt.Sprintf("random fleet %d", i)}
		for n, size := 0, 1+rng.Intn(40); n < size; n++ {
			c := core.ClusterID(fmt.Sprintf("c%d", rng.Intn(4)))
			r := rep(core.NodeID(fmt.Sprintf("n%03d", n)), c, 0,
				rng.Float64()*70, rng.Float64()*20, rng.Float64()*40, 0.5+rng.Float64()*2, 0)
			if rng.Intn(3) == 0 {
				r = linked(r, "c0", rng.Float64(), rng.Float64()*1e6)
			}
			f.reports = append(f.reports, r)
		}
		fleets = append(fleets, f)
	}
	return fleets
}

func minNodes4(c *core.Config) { c.MinNodes = 4 }

// homogeneousFleet is n equal nodes of one cluster, idle idle seconds
// of the period each.
func homogeneousFleet(n int, idle float64) []metrics.Report {
	out := make([]metrics.Report, n)
	for i := range out {
		out[i] = rep(core.NodeID(fmt.Sprintf("h%02d", i)), "c0", 0, idle, 0, 0, 10, 0)
	}
	return out
}

// saturatedFleet: eight healthy nodes and four whose uplink is
// saturated (75 % inter-cluster overhead).
func saturatedFleet() []metrics.Report {
	var out []metrics.Report
	for i := 0; i < 8; i++ {
		out = append(out, rep(core.NodeID(rune('a'+i)), "ok", 0, 60, 0, 0, 10, 0))
	}
	for i := 0; i < 4; i++ {
		out = append(out, rep(core.NodeID(rune('p'+i)), "throttled", 0, 20, 0, 75, 10, 0))
	}
	return out
}

// congestedFleet: three equally overloaded clusters, so overhead alone
// cannot tell them apart; every pair with C achieves a few KB/s while
// A<->B moves 10 MB/s.
func congestedFleet() []metrics.Report {
	mk := func(node core.NodeID, cluster core.ClusterID, links map[core.ClusterID]core.LinkSample) metrics.Report {
		r := rep(node, cluster, 0, 90, 0, 0, 1, 0)
		r.Links = links
		return r
	}
	return []metrics.Report{
		mk("a0", "A", map[core.ClusterID]core.LinkSample{"B": {Seconds: 2, Bytes: 20e6}, "C": {Seconds: 50, Bytes: 4e5}}),
		mk("b0", "B", map[core.ClusterID]core.LinkSample{"A": {Seconds: 1, Bytes: 12e6}, "C": {Seconds: 40, Bytes: 3e5}}),
		mk("c0", "C", map[core.ClusterID]core.LinkSample{"A": {Seconds: 60, Bytes: 5e5}, "B": {Seconds: 55, Bytes: 4e5}}),
	}
}

// decideTree runs one period of the coordinator tree over a fleet,
// assembled from the parts the runtimes deploy: one uncapped SubKernel
// per cluster, its Summarize, and a RootKernel that Ingests every
// summary and Ticks. The actuator grants every request and evicts every
// victim; it lists no cluster roster, so a cluster eviction removes the
// cluster's reporting nodes. It returns the period's record and the
// evicted nodes in eviction order.
func decideTree(t testing.TB, cfg core.Config, reports []metrics.Report) (PeriodRecord, []core.NodeID) {
	t.Helper()
	act := &scriptedActuator{}
	root, err := NewRoot(Config{Engine: &cfg}, act)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[core.ClusterID]*SubKernel{}
	members := map[core.ClusterID][]core.NodeID{}
	var clusters []core.ClusterID
	for _, r := range reports {
		sub, ok := subs[r.Cluster]
		if !ok {
			sub = NewSubKernel(r.Cluster, 0, cfg.Weights)
			subs[r.Cluster] = sub
			clusters = append(clusters, r.Cluster)
		}
		sub.Report(r)
		members[r.Cluster] = append(members[r.Cluster], r.Node)
	}
	for _, c := range clusters {
		root.Ingest(subs[c].Summarize(dur, members[c]))
	}
	rec := root.Tick(dur, clusters, len(reports))
	var evicted []core.NodeID
	for _, e := range act.evictions {
		evicted = append(evicted, e...)
	}
	return rec, evicted
}

// decisionRow renders one golden row: fleet, action, WAE to 9 decimals,
// nodes added and removed, the evicted nodes in order, and the detail.
func decisionRow(name string, rec PeriodRecord, evicted []core.NodeID) string {
	ev := "-"
	if len(evicted) > 0 {
		ids := make([]string, len(evicted))
		for i, id := range evicted {
			ids[i] = string(id)
		}
		ev = strings.Join(ids, ",")
	}
	return fmt.Sprintf("%s\t%s\t%.9f\t+%d\t-%d\t%s\t%s", name, rec.Action, rec.WAE, rec.Added, rec.Removed, ev, rec.Detail)
}

const decisionsHeader = `# What the coordinator tree decides in one period on each fleet of
# coord.TestDecisionGolden, one row each, tab-separated: fleet, action,
# WAE to 9 decimals, nodes added, nodes removed, the evicted nodes in
# eviction order (- for none), and the detail string. Regenerate with
# make goldens (go test ./internal/coord -run '^TestDecisionGolden$'
# -update), never by hand.
`

// TestDecisionGolden holds the coordinator tree's Figure-2 decisions on
// decisionFleets to testdata/decisions.golden: the band comparison, the
// grow and shrink counts, both cluster-eviction rules with their
// guards, worst-node ranking, the MinNodes floor, bootstrap, and the
// unweighted ablation. A fleet with a want must also take that action,
// whatever the golden says.
func TestDecisionGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString(decisionsHeader)
	seen := map[string]int{}
	for _, f := range decisionFleets() {
		cfg := core.DefaultConfig()
		if f.cfg != nil {
			f.cfg(&cfg)
		}
		rec, evicted := decideTree(t, cfg, f.reports)
		seen[rec.Action]++
		if f.want != "" && rec.Action != f.want {
			t.Errorf("%s: action %q (%s), want %q", f.name, rec.Action, rec.Detail, f.want)
		}
		if rec.Removed != len(evicted) {
			t.Errorf("%s: removed %d, evicted %v", f.name, rec.Removed, evicted)
		}
		b.WriteString(decisionRow(f.name, rec, evicted) + "\n")
	}
	for _, a := range []string{"add", "none", "remove-nodes", "remove-cluster"} {
		if seen[a] == 0 {
			t.Errorf("no fleet led to %q: the table lost coverage", a)
		}
	}
	got := b.String()
	if *update {
		if !t.Failed() {
			if err := os.WriteFile(decisionsGolden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	raw, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, gotRows := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantRows) || i < len(gotRows); i++ {
		var w, g string
		if i < len(wantRows) {
			w = wantRows[i]
		}
		if i < len(gotRows) {
			g = gotRows[i]
		}
		if w != g {
			t.Errorf("%s line %d:\n got %q\nwant %q", decisionsGolden, i+1, g, w)
		}
	}
}

// TestKernelMatchesEngineDecide holds the one-process Kernel to the
// decision golden. The golden's rows for the Figure-2 fleets and the
// 200 random ones were frozen while they equalled core.Engine.Decide's
// answers, the paper's strategy over one flat slice of node statistics,
// so the Kernel still takes Decide's action, reason and victims, and
// it agrees with the tree's parts on every other row.
func TestKernelMatchesEngineDecide(t *testing.T) {
	raw, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	frozen := map[string]string{}
	for _, row := range strings.Split(string(raw), "\n") {
		if row != "" && !strings.HasPrefix(row, "#") {
			frozen[strings.SplitN(row, "\t", 2)[0]] = row
		}
	}
	fleets := decisionFleets()
	for _, f := range fleets {
		cfg := core.DefaultConfig()
		if f.cfg != nil {
			f.cfg(&cfg)
		}
		act := &scriptedActuator{}
		k := newKernel(t, Config{Engine: &cfg}, act)
		var live []core.NodeID
		for _, r := range f.reports { // scripted in node order: the order the kernel sorts into
			live = append(live, r.Node)
			k.Report(r)
		}
		rec := k.Tick(dur, live)
		var evicted []core.NodeID
		for _, e := range act.evictions {
			evicted = append(evicted, e...)
		}
		if got, want := decisionRow(f.name, rec, evicted), frozen[f.name]; got != want {
			t.Errorf("kernel:\n got %q\nwant %q", got, want)
		}
	}
	if len(frozen) != len(fleets) {
		t.Errorf("%s has %d rows for %d fleets", decisionsGolden, len(frozen), len(fleets))
	}
}

// TestTreeDecisionConsistencyProperty: on random fleets the tree's WAE
// is core.WeightedAverageEfficiency of the reports, its action agrees
// with where that WAE sits in the band, and an eviction never empties
// the computation.
func TestTreeDecisionConsistencyProperty(t *testing.T) {
	cfg := core.DefaultConfig()
	f := func(seed int64, nRaw, clustersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		nc := int(clustersRaw%5) + 1
		reports := make([]metrics.Report, n)
		stats := make([]core.NodeStats, n)
		for i := range reports {
			idle := rng.Float64() * 100
			inter := rng.Float64() * (100 - idle)
			reports[i] = rep(core.NodeID(fmt.Sprintf("n%02d", i)), core.ClusterID(rune('A'+i%nc)), 0,
				idle, 0, inter, 1+rng.Float64()*9, 0)
			stats[i] = reports[i].Stats()
		}
		rec, evicted := decideTree(t, cfg, reports)
		wae := core.WeightedAverageEfficiency(stats)
		if math.Abs(rec.WAE-wae) > 1e-9 {
			t.Logf("WAE %v, flat formula %v", rec.WAE, wae)
			return false
		}
		switch rec.Action {
		case "add":
			return wae > cfg.EMax && rec.Added >= 1
		case "remove-nodes":
			return wae < cfg.EMin && len(evicted) >= 1 && len(evicted) < n
		case "remove-cluster":
			return wae < cfg.EMin && len(evicted) >= 1 && len(evicted) < n
		case "none":
			return wae >= cfg.EMin-1e-12 && wae <= cfg.EMax+1e-12 || n == cfg.MinNodes
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
