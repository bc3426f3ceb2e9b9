package coord

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wirefmt/frametest"
)

// --- wire codec golden suite ------------------------------------------

// TestClusterSummaryWireParity holds the summary frame to the value it
// was encoded from: zero values, extreme floats, unicode IDs,
// nil-vs-empty-vs-populated link maps, and a fully loaded frame.
func TestClusterSummaryWireParity(t *testing.T) {
	frametest.RoundTrip[ClusterSummary, *ClusterSummary](t, []ClusterSummary{
		{},
		{Cluster: "A", Seq: 1, Epoch: 0, Time: 100, Nodes: 4, Stats: 4,
			SpeedMax: 100, SpeedMin: 50, WorkSum: 180, ZeroWork: 0.5,
			EffSum: 2.5, SpeedSum: 300, InterSum: 0.75,
			InterBWSum: 4e6, InterBWCnt: 2},
		{Cluster: "кластер-ü", Seq: math.MaxUint64, Epoch: 7,
			Time: -1, Nodes: math.MaxInt32, Stats: 0,
			SpeedMax: math.MaxFloat64, SpeedMin: math.SmallestNonzeroFloat64,
			Links: map[core.ClusterID]core.LinkSample{
				"B":    {Seconds: 0.5, Bytes: 1 << 20},
				"远方集群": {Seconds: 3, Bytes: 7},
			},
			Proposals: []NodeSample{
				{Node: "n0", Speed: 100, Idle: 0.25, IntraComm: 0.125, InterComm: 0.5},
				{Node: "узел-1"},
			},
			Req: ReqState{
				Nodes:        []core.NodeID{"bad-1", "bad-2"},
				Clusters:     []core.ClusterID{"C"},
				MinBandwidth: 5e5,
			}},
		{Cluster: "A", Links: map[core.ClusterID]core.LinkSample{}},
		{Cluster: "stream-src", Seq: 9, Time: 300, Nodes: 6, Stats: 6,
			HasStream: true, StreamArrived: 120, StreamCompleted: 118,
			StreamLatencySum: 94.5, StreamBacklog: 17},
		{Cluster: "stream-edge", HasStream: true,
			StreamArrived: math.MaxInt32, StreamCompleted: 0,
			StreamLatencySum: math.MaxFloat64, StreamBacklog: 0},
	})
}

// A summary no sub-kernel could build fails its frame, as a node's
// report does: a non-finite float, or a negative count, speed, partial
// sum or link sample.
func TestClusterSummaryWireRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	frametest.Rejects[ClusterSummary, *ClusterSummary](t, []ClusterSummary{
		{Time: nan},
		{Time: -inf},
		{Nodes: -1},
		{Stats: -1},
		{SpeedMax: inf},
		{SpeedMin: -1},
		{WorkSum: nan},
		{ZeroWork: -1},
		{EffSum: nan},
		{SpeedSum: -1},
		{InterSum: nan},
		{InterBWSum: -1},
		{InterBWCnt: -1},
		{HasStream: true, StreamCompleted: -1},
		{HasStream: true, StreamLatencySum: inf},
		{HasStream: true, StreamBacklog: -1},
		{Links: map[core.ClusterID]core.LinkSample{"B": {Seconds: nan}}},
		{Links: map[core.ClusterID]core.LinkSample{"B": {Bytes: -1}}},
		{Proposals: []NodeSample{{Node: "n0", Idle: nan}}},
		{Proposals: []NodeSample{{Node: "n0", Speed: -1}}},
		{Req: ReqState{MinBandwidth: nan}},
	})
	frametest.Rejects[SummaryAck, *SummaryAck](t, []SummaryAck{{Req: ReqState{MinBandwidth: -1}}})
}

func TestReqStateWireParity(t *testing.T) {
	frametest.RoundTrip[ReqState, *ReqState](t, []ReqState{
		{},
		{Nodes: []core.NodeID{"n1"}, MinBandwidth: 1e6},
		{Nodes: []core.NodeID{"n1", "узел-2"}, Clusters: []core.ClusterID{"A", "B"}, MinBandwidth: 0.5},
	})
}

// The tree protocol's control frames: the root's summary receipt and
// its eager post-action reset push.
func TestSummaryAckWireParity(t *testing.T) {
	frametest.RoundTrip[SummaryAck, *SummaryAck](t, []SummaryAck{
		{},
		{Cluster: "c0", Seq: 7, Epoch: 3},
		{Cluster: "grappe-é", Seq: math.MaxUint64, Epoch: 1 << 40, Req: ReqState{
			Nodes:        []core.NodeID{"c0/00", "узел-1"},
			Clusters:     []core.ClusterID{"bad"},
			MinBandwidth: 2e6,
		}},
	})
}

func TestShardResetWireParity(t *testing.T) {
	frametest.RoundTrip[ShardReset, *ShardReset](t, []ShardReset{
		{},
		{Epoch: 5},
		{Epoch: math.MaxUint64, Req: ReqState{
			Nodes:        []core.NodeID{"a/00"},
			Clusters:     []core.ClusterID{"x", "y"},
			MinBandwidth: math.SmallestNonzeroFloat64,
		}},
	})
}

// summaryGolden, ackGolden and resetGolden are one frame of each
// tree-protocol kind, zero and fully loaded, with its committed bytes;
// FuzzTreeFrames seeds from all of them.
var summaryGolden = []frametest.Row{
	{Frame: &ClusterSummary{}, Hex: "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{Frame: &ClusterSummary{
		Cluster: "grappe-é", Seq: 3, Epoch: 1, Time: 200, Nodes: 2, Stats: 2,
		SpeedMax: 100, SpeedMin: 50, WorkSum: 75, ZeroWork: 0.5, EffSum: 1.5,
		SpeedSum: 150, InterSum: 0.25, InterBWSum: 2e6, InterBWCnt: 1,
		Links:     map[core.ClusterID]core.LinkSample{"B": {Seconds: 1, Bytes: 2e6}, "": {}},
		Proposals: []NodeSample{{Node: "узел-1", Speed: 50, Idle: 0.5, IntraComm: 0.125, InterComm: 0.0625}},
		HasStream: true, StreamArrived: 40, StreamCompleted: 39, StreamLatencySum: 12.25, StreamBacklog: 3,
		Req: ReqState{Nodes: []core.NodeID{"bad"}, MinBandwidth: 1e5},
	}, Hex: "096772617070652dc3a9030100000000000069400404000000000000594000000000000049400000000000c05240000000000000e03f000000000000f83f0000000000c06240000000000000d03f0000000080843e410201504e000000000080284006010200000000000000000000000000000000000142000000000000f03f0000000080843e41010ad183d0b7d0b5d0bb2d310000000000004940000000000000e03f000000000000c03f000000000000b03f01036261640000000000006af840"},
}

var ackGolden = []frametest.Row{
	{Frame: &SummaryAck{}, Hex: "00000000000000000000000000"},
	{Frame: &SummaryAck{Cluster: "c0", Seq: 9, Epoch: 2, Req: ReqState{
		Nodes: []core.NodeID{"c0/01"}, Clusters: []core.ClusterID{"bad"}, MinBandwidth: 5e-324}}, Hex: "0263300902010563302f303101036261640100000000000000"},
}

var resetGolden = []frametest.Row{
	{Frame: &ShardReset{}, Hex: "0000000000000000000000"},
	{Frame: &ShardReset{Epoch: ^uint64(0), Req: ReqState{Clusters: []core.ClusterID{"x", "y"}}}, Hex: "ffffffffffffffffff010002017801790000000000000000"},
}

var treeGolden = slices.Concat(summaryGolden, ackGolden, resetGolden)

// TestTreeWireGolden pins the tree protocol's frames by bytes.
func TestTreeWireGolden(t *testing.T) { frametest.Golden(t, treeGolden) }

// TestClusterSummaryWireCorrupt, TestSummaryAckWireCorrupt and
// TestShardResetWireCorrupt: a truncated frame fails cleanly and a
// flipped byte never panics the decoder.
func TestClusterSummaryWireCorrupt(t *testing.T) { frametest.Corrupt(t, summaryGolden) }
func TestSummaryAckWireCorrupt(t *testing.T)     { frametest.Corrupt(t, ackGolden) }
func TestShardResetWireCorrupt(t *testing.T)     { frametest.Corrupt(t, resetGolden) }

// --- scripted decisions through the composed kernel -------------------

// worldActuator is the fake runtime of the decision scripts: it grants
// every provision, evicts every victim from its own live world, and
// records all calls. It also answers RootActuator's roster question,
// as both real drivers' actuators do — the composed Kernel must not
// ask it.
type worldActuator struct {
	live       map[core.NodeID]core.ClusterID
	provisions []int
	evictions  [][]core.NodeID
	labels     []string
}

func newWorld(world map[core.NodeID]core.ClusterID) *worldActuator {
	a := &worldActuator{live: make(map[core.NodeID]core.ClusterID, len(world))}
	for id, c := range world {
		a.live[id] = c
	}
	return a
}

func (a *worldActuator) Provision(n int, minBandwidth float64, veto Veto) int {
	a.provisions = append(a.provisions, n)
	return n
}

func (a *worldActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	for _, id := range victims {
		delete(a.live, id)
	}
	a.evictions = append(a.evictions, append([]core.NodeID(nil), victims...))
	return victims
}

func (a *worldActuator) ObservedBandwidth(core.ClusterID) float64 { return 0 }

func (a *worldActuator) Annotate(label string) { a.labels = append(a.labels, label) }

func (a *worldActuator) ClusterNodes(c core.ClusterID) []core.NodeID {
	var out []core.NodeID
	for id, cl := range a.live {
		if cl == c {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var _ RootActuator = (*worldActuator)(nil)

func (a *worldActuator) sortedLive() []core.NodeID {
	out := make([]core.NodeID, 0, len(a.live))
	for id := range a.live {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// period feeds one period's reports (those of nodes still live) to the
// kernel and ticks it over the actuator's live world.
func period(k *Kernel, act *worldActuator, pi int, reports []metrics.Report) PeriodRecord {
	for _, r := range reports {
		if _, ok := act.live[r.Node]; ok {
			k.Report(r)
		}
	}
	return k.Tick(float64(pi+1)*dur, act.sortedLive())
}

// wantRecord compares the decision fields of a period record verbatim.
func wantRecord(t *testing.T, pi int, got PeriodRecord, action, detail string, added, removed int) {
	t.Helper()
	if got.Action != action || got.Detail != detail || got.Added != added || got.Removed != removed {
		t.Fatalf("period %d: got %q %q +%d -%d\n           want %q %q +%d -%d",
			pi, got.Action, got.Detail, got.Added, got.Removed, action, detail, added, removed)
	}
}

func sortedNodes(ids []core.NodeID) []core.NodeID {
	out := append([]core.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestKernelDecisionScript walks the batch policy on a 3x2 world: grow,
// the within-band case, worst-node shrink on the two-period average,
// and the inter-comm whole-cluster eviction with its learned bandwidth.
// All report values are binary-exact, so the WAE summed over cluster
// partials is the WAE summed over nodes.
func TestKernelDecisionScript(t *testing.T) {
	act := newWorld(map[core.NodeID]core.ClusterID{
		"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C",
	})
	k := newKernel(t, Config{}, act)
	all := func(mk func(n core.NodeID, c core.ClusterID) metrics.Report) []metrics.Report {
		var out []metrics.Report
		for _, n := range []core.NodeID{"a1", "a2", "b1", "b2", "c1", "c2"} {
			out = append(out, mk(n, core.ClusterID(strings.ToUpper(string(n[:1])))))
		}
		return out
	}

	// Period 0: everyone 75% efficient -> WAE 0.750 > EMax, grow by
	// round(6·0.75/0.4)-6 = 5.
	r := period(k, act, 0, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 0, 25, 0, 0, 100, 0)
	}))
	wantRecord(t, 0, r, "add", "WAE 0.750 > EMax 0.50 on 6 nodes: request 5 more", 5, 0)

	// Period 1: 43.75% efficient -> within band, no action.
	r = period(k, act, 1, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 1, 56.25, 0, 0, 100, 0)
	}))
	wantRecord(t, 1, r, "none", "WAE 0.438 within [0.30,0.50]", 0, 0)

	// Period 2: idle jumps to 87.5%; the two-period smoothing puts the
	// WAE at (0.4375+0.125)/2 = 0.28125 < EMin, and the worst-cluster
	// bonus (tie broken towards cluster A) selects a1, a2.
	r = period(k, act, 2, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 2, 87.5, 0, 0, 100, 0)
	}))
	wantRecord(t, 2, r, "remove-nodes", "WAE 0.281 < EMin 0.30 on 6 nodes: remove 2 worst", 0, 2)
	if !reflect.DeepEqual(act.evictions, [][]core.NodeID{{"a1", "a2"}}) {
		t.Fatalf("period 2: evicted %v, want [[a1 a2]]", act.evictions)
	}

	// Period 3: cluster B's inter-cluster overhead dominates (50% vs
	// 12.5%) with WAE 0.1875 < EMin -> whole-cluster eviction, learned
	// bandwidth from B's reported achieved throughput.
	r = period(k, act, 3, []metrics.Report{
		rep("b1", "B", 3, 37.5, 0, 50, 100, 2e6),
		rep("b2", "B", 3, 37.5, 0, 50, 100, 2e6),
		rep("c1", "C", 3, 62.5, 0, 12.5, 100, 0),
		rep("c2", "C", 3, 62.5, 0, 12.5, 100, 0),
	})
	wantRecord(t, 3, r, "remove-cluster",
		"cluster B inter-cluster overhead 50% > 25%: uplink bandwidth insufficient, evacuating cluster", 0, 2)
	if !approx(r.WAE, 0.1875) {
		t.Fatalf("period 3: WAE %v, want 0.1875", r.WAE)
	}

	// Period 4: the surviving cluster settles inside the band.
	r = period(k, act, 4, []metrics.Report{
		rep("c1", "C", 4, 56.25, 0, 0, 100, 0),
		rep("c2", "C", 4, 56.25, 0, 0, 100, 0),
	})
	wantRecord(t, 4, r, "none", "WAE 0.438 within [0.30,0.50]", 0, 0)

	if !reflect.DeepEqual(act.provisions, []int{5}) {
		t.Errorf("provisions = %v, want [5]", act.provisions)
	}
	if want := [][]core.NodeID{{"a1", "a2"}, {"b1", "b2"}}; !reflect.DeepEqual(act.evictions, want) {
		t.Errorf("evictions = %v, want %v", act.evictions, want)
	}
	wantLabels := []string{
		"adding 5 nodes (WAE 0.75)",
		"removed 2 worst nodes (WAE 0.28)",
		"removed badly connected cluster B (2 nodes)",
	}
	if !reflect.DeepEqual(act.labels, wantLabels) {
		t.Errorf("annotations = %q, want %q", act.labels, wantLabels)
	}
	req := k.Requirements()
	if got := sortedNodes(req.BlacklistedNodes()); !reflect.DeepEqual(got, []core.NodeID{"a1", "a2", "b1", "b2"}) {
		t.Errorf("blacklisted nodes = %v, want [a1 a2 b1 b2]", got)
	}
	if got := req.BlacklistedClusters(); !reflect.DeepEqual(got, []core.ClusterID{"B"}) {
		t.Errorf("blacklisted clusters = %v, want [B]", got)
	}
	if req.MinBandwidth() != 2e6 {
		t.Errorf("learned bandwidth = %v, want 2e6 from cluster B's reports", req.MinBandwidth())
	}
	if got := act.sortedLive(); !reflect.DeepEqual(got, []core.NodeID{"c1", "c2"}) {
		t.Errorf("survivors = %v, want [c1 c2]", got)
	}
}

// TestKernelBandwidthCulprit pins the measurement-based cluster-drop
// rule: the per-cluster link-sample partials must reproduce the pair-
// bandwidth estimation over all nodes.
func TestKernelBandwidthCulprit(t *testing.T) {
	act := newWorld(map[core.NodeID]core.ClusterID{
		"d1": "D", "d2": "D", "e1": "E", "e2": "E", "f1": "F", "f2": "F",
	})
	k := newKernel(t, Config{}, act)
	mk := func(n core.NodeID, c, peer core.ClusterID, sec, bytes float64) metrics.Report {
		r := rep(n, c, 0, 87.5, 0, 0, 100, 0)
		if peer != "" {
			r.Links = map[core.ClusterID]core.LinkSample{peer: {Seconds: sec, Bytes: bytes}}
		}
		return r
	}
	// Pair D-F moves 10 MB at 10 MB/s; pair D-E moves 2 MB at 0.5 MB/s.
	// Cluster E's best pair (0.5 MB/s) is under 10% of the healthiest
	// pair -> E is the culprit, evacuated with the measured bandwidth
	// becoming the learned bound.
	r := period(k, act, 0, []metrics.Report{
		mk("d1", "D", "F", 0.5, 5e6),
		mk("d2", "D", "F", 0.5, 5e6),
		mk("e1", "E", "D", 2, 1e6),
		mk("e2", "E", "D", 2, 1e6),
		mk("f1", "F", "", 0, 0),
		mk("f2", "F", "", 0, 0),
	})
	wantRecord(t, 0, r, "remove-cluster",
		"cluster E best-pair bandwidth 500000 B/s vs 10000000 B/s elsewhere: uplink insufficient, evacuating cluster", 0, 2)
	if want := [][]core.NodeID{{"e1", "e2"}}; !reflect.DeepEqual(act.evictions, want) {
		t.Errorf("evictions = %v, want %v", act.evictions, want)
	}
	if bw := k.Requirements().MinBandwidth(); bw != 5e5 {
		t.Errorf("learned bandwidth = %v, want the measured 5e5", bw)
	}
}

// TestCappedProposalsAreTheRootsWorst pins the capped proposal path: a
// sub with cap k proposes exactly the k nodes the root ranks worst in
// the uncapped summary of the same cluster, in the root's order, and a
// cap at or above the report count proposes every node. The fleet mixes
// speeds, has an unmeasured node (ranked at the slowest measured
// speed) and ties, which break on NodeID.
func TestCappedProposalsAreTheRootsWorst(t *testing.T) {
	w := core.DefaultBadnessWeights()
	// rep's inter argument is seconds of the 100 s period.
	reports := []metrics.Report{
		rep("a0", "A", 0, 50, 0, 2, 100, 0),
		rep("a1", "A", 0, 50, 0, 2, 50, 0),
		rep("a2", "A", 0, 50, 0, 2, 50, 0),
		rep("a3", "A", 0, 50, 0, 10, 25, 0),
		rep("a4", "A", 0, 50, 0, 2, 0, 0),
		rep("a5", "A", 0, 50, 0, 5, 100, 0),
		rep("a6", "A", 0, 50, 0, 5, 80, 0),
		rep("a7", "A", 0, 50, 0, 2, 100, 0),
	}
	var live []core.NodeID
	for _, r := range reports {
		live = append(live, r.Node)
	}
	summarize := func(proposalCap int) ClusterSummary {
		sub := NewSubKernel("A", proposalCap, w)
		for _, r := range reports {
			sub.Report(r)
		}
		return sub.Summarize(dur, live)
	}
	nodes := func(ps []NodeSample) []core.NodeID {
		var out []core.NodeID
		for _, p := range ps {
			out = append(out, p.Node)
		}
		return out
	}

	full := summarize(0)
	c := core.DefaultConfig()
	rk, err := NewRoot(Config{Engine: &c}, &scriptedActuator{})
	if err != nil {
		t.Fatal(err)
	}
	if !rk.Ingest(full) {
		t.Fatal("uncapped summary refused")
	}
	var worst []core.NodeID
	for _, nb := range rk.rank([]core.ClusterPartial{full.partial()}) {
		worst = append(worst, nb.Node)
	}
	// Badness 1/speed + 100·inter + 10: a3 14, a6 6.25, a4 (as slow as
	// a3) 6, a5 6, a1 = a2 4, a0 = a7 3.
	if want := []core.NodeID{"a3", "a6", "a4", "a5", "a1", "a2", "a0", "a7"}; !reflect.DeepEqual(worst, want) {
		t.Fatalf("root ranking = %v, want %v", worst, want)
	}

	for k := 1; k <= len(reports)+1; k++ {
		sum := summarize(k)
		want := live
		if k < len(reports) {
			want = worst[:k]
		}
		if got := nodes(sum.Proposals); !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d proposes %v, want %v", k, got, want)
		}
		for _, p := range sum.Proposals {
			if i := slices.Index(live, p.Node); !reflect.DeepEqual(p, full.Proposals[i]) {
				t.Errorf("cap %d sample %+v, uncapped %+v", k, p, full.Proposals[i])
			}
		}
	}
}

// TestClusterEvictionSparesUnreportedNodes: whole-cluster eviction is a
// verdict on the nodes whose reports showed the saturated uplink. A
// node that joined the cluster and has not completed a period stays,
// although the actuator could name it (ClusterNodes) and a RootKernel
// fed over the network would ask.
func TestClusterEvictionSparesUnreportedNodes(t *testing.T) {
	act := newWorld(map[core.NodeID]core.ClusterID{
		"b1": "B", "b2": "B", "b3": "B", "c1": "C", "c2": "C",
	})
	k := newKernel(t, Config{}, act)
	r := period(k, act, 0, []metrics.Report{
		rep("b1", "B", 0, 37.5, 0, 50, 100, 2e6),
		rep("b2", "B", 0, 37.5, 0, 50, 100, 2e6),
		rep("c1", "C", 0, 62.5, 0, 12.5, 100, 0),
		rep("c2", "C", 0, 62.5, 0, 12.5, 100, 0),
	})
	if r.Action != "remove-cluster" || r.Removed != 2 || r.Nodes != 5 || r.Stats != 4 {
		t.Fatalf("got %+v, want remove-cluster of the 2 reporting nodes out of 5 live", r)
	}
	if want := [][]core.NodeID{{"b1", "b2"}}; !reflect.DeepEqual(act.evictions, want) {
		t.Fatalf("evicted %v, want %v: b3 has not reported", act.evictions, want)
	}
	if _, alive := act.live["b3"]; !alive {
		t.Fatal("the unreported b3 was evicted")
	}
}

// streamWorld is the 2x2 world of the streaming scripts. Distinct
// badness per node gives victim ranking a unique order: b2 is slow and
// mostly idle — the unambiguous first victim, then b1.
func streamWorld(t *testing.T) (*Kernel, *worldActuator, func(int) []metrics.Report) {
	t.Helper()
	act := newWorld(map[core.NodeID]core.ClusterID{"a1": "A", "a2": "A", "b1": "B", "b2": "B"})
	// Target 2s; core's high/low ratios 1 and 0.5, shrink after 4 calm
	// periods, shed after 3 stuck ones.
	obj, err := core.NewStreamSLO(core.StreamSLOConfig{TargetLatency: 2})
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{Objective: obj}, act)
	if err != nil {
		t.Fatal(err)
	}
	reports := func(pi int) []metrics.Report {
		return []metrics.Report{
			rep("a1", "A", pi, 10, 0, 0, 100, 0),
			rep("a2", "A", pi, 20, 0, 0, 100, 0),
			rep("b1", "B", pi, 30, 0, 0, 100, 0),
			rep("b2", "B", pi, 80, 0, 0, 50, 0),
		}
	}
	return k, act, reports
}

// observe feeds one period's stream observation in two partials of ten
// completed items each, lat seconds per item.
func observe(k *Kernel, lat float64) {
	for i := 0; i < 2; i++ {
		k.ObserveStream(core.StreamObs{Arrived: 10, Completed: 10, LatencySum: 10 * lat})
	}
}

// TestKernelStreamSLOScript walks the streaming objective's hysteresis
// state machine through the kernel: the proportional grow on a
// violation, the dead band, the calm streak, the single sluggish shrink
// with a badness-ranked victim, and the streak restart after acting.
func TestKernelStreamSLOScript(t *testing.T) {
	k, act, reports := streamWorld(t)

	// Period 0: mean latency 4s, health 0.5 -> SLO violated, grow
	// proportionally: round(4·(1/0.5 - 1)) = 4, within the 1x cap.
	observe(k, 4)
	r := period(k, act, 0, reports(0))
	wantRecord(t, 0, r, "add", "stream health 0.500 below SLO (target 2s) on 4 nodes: request 4 more", 4, 0)
	if !approx(r.WAE, 0.5) {
		t.Fatalf("period 0: health %v, want 0.5", r.WAE)
	}

	// Period 1: mean latency exactly on target, health 1.0 — inside the
	// hysteresis dead band: no violation, not calm either.
	observe(k, 2)
	r = period(k, act, 1, reports(1))
	wantRecord(t, 1, r, "none", "stream health 1.000 within band", 0, 0)

	// Periods 2-5: mean latency 0.5s, health 4 — calm. Three holds while
	// the streak builds, then the fourth consecutive calm period releases
	// exactly one node: the badness-worst b2, not blacklisted.
	for pi := 2; pi <= 4; pi++ {
		observe(k, 0.5)
		r = period(k, act, pi, reports(pi))
		wantRecord(t, pi, r, "none", "stream health 4.000 within band", 0, 0)
	}
	observe(k, 0.5)
	r = period(k, act, 5, reports(5))
	wantRecord(t, 5, r, "remove-nodes", "stream health 4.000 calm for 4 periods on 4 nodes: release 1", 0, 1)
	if want := [][]core.NodeID{{"b2"}}; !reflect.DeepEqual(act.evictions, want) {
		t.Fatalf("period 5: evicted %v, want %v", act.evictions, want)
	}

	// Period 6: still calm, but the shrink restarted the streak — one
	// calm period is not four, so the kernel holds.
	k.ObserveStream(core.StreamObs{Arrived: 10, Completed: 10, LatencySum: 5})
	k.ObserveStream(core.StreamObs{Arrived: 5, Completed: 5, LatencySum: 2.5})
	r = period(k, act, 6, reports(6))
	wantRecord(t, 6, r, "none", "stream health 4.000 within band", 0, 0)

	if !reflect.DeepEqual(act.provisions, []int{4}) {
		t.Errorf("provisions = %v, want [4]", act.provisions)
	}
	if bl := k.Requirements().BlacklistedNodes(); len(bl) != 0 {
		t.Errorf("capacity shrink blacklisted nodes: %v", bl)
	}
}

// TestKernelStreamSLOShedScript pins the straggler-shed path. The
// actuator "grants" every provision but the granted nodes never report,
// so the census never moves — exactly the stuck-violation shape the
// shed guard watches for. The kernel must flip from growing to shedding
// the badness-worst nodes and blacklist them: a shed is a judgement on
// the node, so the provisioner must not hand it back.
func TestKernelStreamSLOShedScript(t *testing.T) {
	k, act, reports := streamWorld(t)

	// Periods 0-2: three judged violations (mean latency 4s against a 2s
	// target, health 0.5) with no census growth — the guard is still
	// patient, so the kernel keeps asking for nodes.
	for pi := 0; pi <= 2; pi++ {
		observe(k, 4)
		r := period(k, act, pi, reports(pi))
		wantRecord(t, pi, r, "add", "stream health 0.500 below SLO (target 2s) on 4 nodes: request 4 more", 4, 0)
	}

	// Period 3: the fourth stuck violation gives up on growing and sheds
	// the badness-worst node instead.
	observe(k, 4)
	r := period(k, act, 3, reports(3))
	wantRecord(t, 3, r, "remove-nodes",
		"stream health 0.500 stuck below SLO on 4 nodes with no capacity coming: shed 1 straggler", 0, 1)

	// Period 4: still stuck at the smaller census — shed the next-worst.
	observe(k, 4)
	r = period(k, act, 4, reports(4))
	wantRecord(t, 4, r, "remove-nodes",
		"stream health 0.500 stuck below SLO on 3 nodes with no capacity coming: shed 1 straggler", 0, 1)

	if want := [][]core.NodeID{{"b2"}, {"b1"}}; !reflect.DeepEqual(act.evictions, want) {
		t.Errorf("evictions = %v, want %v", act.evictions, want)
	}
	if bl := sortedNodes(k.Requirements().BlacklistedNodes()); !reflect.DeepEqual(bl, []core.NodeID{"b1", "b2"}) {
		t.Errorf("shed victims not blacklisted: got %v, want [b1 b2]", bl)
	}
}

// TestStreamObservationBeforeAnyReport: the stream observation is
// global to the kernel, not a cluster's. A period in which no node has
// reported — no sub-kernel exists yet — still consumes it and records
// its health, and the next period does not see it again.
func TestStreamObservationBeforeAnyReport(t *testing.T) {
	k, act, reports := streamWorld(t)

	observe(k, 4)
	r := k.Tick(dur, act.sortedLive())
	if !approx(r.WAE, 0.5) || r.Stats != 0 || r.Action != "" {
		t.Fatalf("period 0: got %+v, want health 0.5 recorded on zero reports and no decision", r)
	}

	// Reports but no observation: nothing to react to (health 1), not a
	// replay of the consumed 0.5.
	r = period(k, act, 1, reports(1))
	wantRecord(t, 1, r, "none", "stream health 1.000 within band", 0, 0)
}

// --- tick cost benchmarks ----------------------------------------------

// benchSummary fabricates one cluster's summary with a mid-band WAE so
// the benchmarked Tick never acts (no reset, state persists across
// iterations) and a bounded proposal list, the intended big-grid shape.
func benchSummary(i, nodes, proposals int) ClusterSummary {
	c := core.ClusterID(fmt.Sprintf("c%04d", i))
	sum := ClusterSummary{
		Cluster: c, Seq: 1, Time: 100,
		Nodes: nodes, Stats: nodes,
		SpeedMax: 100, SpeedMin: 100,
		WorkSum:  40 * float64(nodes), // eff 0.4 at speed 100
		EffSum:   0.4 * float64(nodes),
		SpeedSum: 100 * float64(nodes),
		InterSum: 0.05 * float64(nodes),
	}
	for p := 0; p < proposals; p++ {
		sum.Proposals = append(sum.Proposals, NodeSample{
			Node:  core.NodeID(fmt.Sprintf("%s-n%03d", c, p)),
			Speed: 100, Idle: 0.55, InterComm: 0.05,
		})
	}
	return sum
}

// BenchmarkRootKernelTick measures the root's per-period cost:
// O(clusters · proposal cap), independent of the node count. The arms
// back the table in EXPERIMENTS.md, "The coordinator tree".
func BenchmarkRootKernelTick(b *testing.B) {
	for _, bc := range []struct {
		name              string
		clusters, perClus int
	}{
		{"200nodes_2clusters", 2, 100},
		{"2knodes_20clusters", 20, 100},
		{"10knodes_100clusters", 100, 100},
		{"100knodes_1000clusters", 1000, 100},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ecfg := core.DefaultConfig()
			rk, err := NewRoot(Config{Engine: &ecfg}, newWorld(nil))
			if err != nil {
				b.Fatal(err)
			}
			clusters := make([]core.ClusterID, 0, bc.clusters)
			for i := 0; i < bc.clusters; i++ {
				sum := benchSummary(i, bc.perClus, 8)
				clusters = append(clusters, sum.Cluster)
				rk.Ingest(sum)
			}
			total := bc.clusters * bc.perClus
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := rk.Tick(100, clusters, total)
				if rec.Action != "none" {
					b.Fatalf("benchmark tick acted: %q (%s)", rec.Action, rec.Detail)
				}
			}
		})
	}
}

// BenchmarkRootReceive measures what answering one summary costs a root
// that has learned a long blacklist: 40 clusters take turns, each
// echoing the snapshot the root handed out with its last ack, as subs
// do in steady state. The cost is what the root learned since the last
// ack (here nothing), not the 2,000 evictions it knows.
func BenchmarkRootReceive(b *testing.B) {
	rk := blacklistedRoot(b, 2000)
	sums := make([]ClusterSummary, 40)
	for i := range sums {
		sums[i] = benchSummary(i, 50, 8)
		sums[i].Req = rk.ReqState()
		rk.Receive(sums[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ack := rk.Receive(sums[i%len(sums)]); len(ack.Req.Nodes) != 2000 {
			b.Fatalf("ack carries %d blacklisted nodes", len(ack.Req.Nodes))
		}
	}
}

// BenchmarkFlatKernelTick is the contrast arm: the one-process Kernel
// summarizes every cluster inside its tick, O(nodes log nodes) with
// per-node smoothing — the cost the sharded drivers move off the root.
func BenchmarkFlatKernelTick(b *testing.B) {
	for _, nodes := range []int{200, 2000, 10000} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			ecfg := core.DefaultConfig()
			k, err := New(Config{Engine: &ecfg}, newWorld(nil))
			if err != nil {
				b.Fatal(err)
			}
			live := make([]core.NodeID, 0, nodes)
			for i := 0; i < nodes; i++ {
				id := core.NodeID(fmt.Sprintf("n%05d", i))
				live = append(live, id)
				// Idle 55% at speed 100: eff 0.45, inside the band.
				k.Report(rep(id, core.ClusterID(fmt.Sprintf("c%04d", i/100)), 0, 55, 0, 0, 100, 0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := k.Tick(100, live)
				if rec.Action != "none" {
					b.Fatalf("benchmark tick acted: %q (%s)", rec.Action, rec.Detail)
				}
			}
		})
	}
}
