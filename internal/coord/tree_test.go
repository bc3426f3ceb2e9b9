package coord

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wirefmt/frametest"
)

// treeScript drives the tree protocol the way a driver does — nothing
// but "a period elapsed", "the send was accepted or refused", "the ack
// or the reset arrived" and "these are the live candidates" — against
// one sub (cluster "b") and a real root kernel.
type treeScript struct {
	t    *testing.T
	act  *scriptedActuator
	root *RootKernel
	sub  *SubLink
	sum  ClusterSummary // last summary handed to the network
	ack  SummaryAck     // last receipt the root produced
	now  float64
}

func newTreeScript(t *testing.T) *treeScript {
	t.Helper()
	ecfg := core.DefaultConfig()
	s := &treeScript{t: t, act: &scriptedActuator{}}
	root, err := NewRoot(Config{Engine: &ecfg}, s.act)
	if err != nil {
		t.Fatal(err)
	}
	s.root = root
	s.restart()
	return s
}

func (s *treeScript) restart() {
	s.sub = NewSubLink("b", 0, core.DefaultBadnessWeights())
}

// period elapses at the sub; the network accepts or refuses the summary.
func (s *treeScript) period(accepted bool) (starved bool) {
	s.now++
	s.sub.Report(metrics.Report{Node: "b/00", Cluster: "b", Start: s.now - 1, End: s.now,
		BusySec: 0.4, IdleSec: 0.6, Speed: 1})
	s.sum = s.sub.Period(s.now, []core.NodeID{"b/00"})
	return s.sub.Sent(accepted)
}

// deliver lands the in-flight summary at the root and returns whether
// the root accepted it into its view; the receipt is kept for ack().
func (s *treeScript) deliver() bool {
	s.ack = s.root.Receive(s.sum)
	s.root.mu.Lock()
	defer s.root.mu.Unlock()
	got, ok := s.root.sums[s.sum.Cluster]
	return ok && got.Seq == s.sum.Seq && got.Time == s.sum.Time
}

func (s *treeScript) rootActs() {
	s.root.mu.Lock()
	s.root.resetLocked()
	s.root.mu.Unlock()
}

func (s *treeScript) state() (missed int, pending bool, epoch uint64) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	return s.sub.missed, s.sub.pending, s.sub.epoch
}

func (s *treeScript) want(missed int, pending bool, epoch uint64) {
	s.t.Helper()
	if m, p, e := s.state(); m != missed || p != pending || e != epoch {
		s.t.Fatalf("sub state missed=%d pending=%v epoch=%d, want missed=%d pending=%v epoch=%d",
			m, p, e, missed, pending, epoch)
	}
}

func TestTreeProtocolScripts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script func(t *testing.T, s *treeScript)
	}{
		{"acked periods never count a miss", func(t *testing.T, s *treeScript) {
			for i := 0; i < 5; i++ {
				if s.period(true) {
					t.Fatalf("period %d: starved with every summary acknowledged", i)
				}
				s.want(0, true, 0)
				s.deliver()
				s.sub.Ack(s.ack)
				s.want(0, false, 0)
			}
		}},
		{"an accepted summary that is never acked is a miss one period later", func(t *testing.T, s *treeScript) {
			if s.period(true) {
				t.Fatal("starved on the first unacknowledged summary")
			}
			s.want(0, true, 0)
			if s.period(true) {
				t.Fatal("starved after one miss")
			}
			s.want(1, true, 0)
			if !s.period(true) {
				t.Fatal("not starved after two missed acks")
			}
			s.want(2, true, 0)
		}},
		{"a refused send is a miss at once", func(t *testing.T, s *treeScript) {
			if s.period(false) {
				t.Fatal("starved after one refused send")
			}
			s.want(1, false, 0)
			if !s.period(false) {
				t.Fatal("not starved after two refused sends")
			}
			s.want(2, false, 0)
		}},
		{"a late ack ends the silence", func(t *testing.T, s *treeScript) {
			s.period(true)
			s.deliver()
			s.period(true) // the ack is still in flight: one miss
			s.want(1, true, 0)
			s.sub.Ack(s.ack)
			s.want(0, false, 0)
		}},
		{"an ack for another cluster is ignored", func(t *testing.T, s *treeScript) {
			s.period(true)
			s.sub.Ack(SummaryAck{Cluster: "a", Epoch: 9})
			s.want(0, true, 0)
		}},
		{"a newer epoch drops the sub's reports, by ack or by push", func(t *testing.T, s *treeScript) {
			s.period(true)
			s.rootActs()
			s.deliver() // stale for the root, but the receipt carries epoch 1
			s.sub.Ack(s.ack)
			s.want(0, false, 1)
			if n := len(s.sub.reports); n != 0 {
				t.Fatalf("%d pre-action reports survived the epoch the ack carried", n)
			}
			s.period(true)
			s.sub.Pushed(ShardReset{Epoch: 2, Req: ReqState{Clusters: []core.ClusterID{"x"}}})
			s.want(0, true, 2) // a push is not a receipt: the summary stays pending
			if n := len(s.sub.reports); n != 0 {
				t.Fatalf("%d pre-action reports survived the pushed reset", n)
			}
			if s.period(true); !reflect.DeepEqual(s.sum.Req.Clusters, []core.ClusterID{"x"}) || s.sum.Epoch != 2 {
				t.Fatalf("next summary stamped epoch %d req %+v, want the pushed ones", s.sum.Epoch, s.sum.Req)
			}
		}},
		{"a stale-epoch ack never takes the sub back", func(t *testing.T, s *treeScript) {
			s.sub.Pushed(ShardReset{Epoch: 3})
			s.period(true)
			s.sub.Ack(SummaryAck{Cluster: "b", Epoch: 2, Req: ReqState{MinBandwidth: 5}})
			s.want(0, false, 3)
			if n := len(s.sub.reports); n != 1 {
				t.Fatalf("stale ack reset the sub: %d reports left", n)
			}
			if s.period(true); s.sum.Req.MinBandwidth != 5 {
				t.Fatal("the ack's requirements snapshot was not cached")
			}
		}},
		{"a sub restarted with empty state catches up from the first ack", func(t *testing.T, s *treeScript) {
			s.rootActs()
			s.rootActs() // the root is at epoch 2
			s.restart()
			s.period(true)
			if s.deliver() {
				t.Fatal("root accepted an epoch-0 summary at epoch 2")
			}
			s.sub.Ack(s.ack)
			s.want(0, false, 2)
			s.period(true)
			if !s.deliver() {
				t.Fatal("root rejected the caught-up sub's summary")
			}
		}},
		{"the lowest live candidate wins, a loser stands down, no candidate is no election", func(t *testing.T, s *treeScript) {
			s.period(false)
			s.period(false)
			if s.sub.Stands(nil) {
				t.Fatal("stood with no candidates")
			}
			s.want(2, false, 0)
			if !s.sub.Stands([]core.ClusterID{"c", "b"}) {
				t.Fatal("lowest candidate did not stand")
			}
			s.want(2, false, 0)
			if s.sub.Stands([]core.ClusterID{"c", "b", "a"}) {
				t.Fatal("stood against a lower candidate")
			}
			s.want(0, false, 0)
		}},
		{"a second claimant stands down", func(t *testing.T, s *treeScript) {
			// Two subs with diverging views both believe they are lowest;
			// the endpoint claim (the driver's lock) admits one.
			rival := NewSubLink("c", 0, core.DefaultBadnessWeights())
			for _, l := range []*SubLink{s.sub, rival} {
				l.Period(1, nil)
				l.Sent(false)
				l.Period(2, nil)
				if !l.Sent(false) {
					t.Fatal("not starved")
				}
			}
			if !s.sub.Stands([]core.ClusterID{"b", "c"}) || !rival.Stands([]core.ClusterID{"c"}) {
				t.Fatal("both views should elect their own sub")
			}
			if _, err := s.sub.Promote(s.root.cfg, s.act); err != nil {
				t.Fatal(err)
			}
			rival.StandDown() // its claim was refused
			s.want(0, false, 0)
			if rival.Sent(false) {
				t.Fatal("stood-down claimant starved again after a single miss")
			}
			if n := len(s.act.labels); n != 1 {
				t.Fatalf("%d failover annotations, want exactly one successor", n)
			}
		}},
		{"the successor starts from the winner's cache", func(t *testing.T, s *treeScript) {
			s.sub.Pushed(ShardReset{Epoch: 4, Req: ReqState{
				Nodes: []core.NodeID{"b/07"}, Clusters: []core.ClusterID{"x"}, MinBandwidth: 2e6}})
			s.period(false)
			s.period(false)
			rk, err := s.sub.Promote(s.root.cfg, s.act)
			if err != nil {
				t.Fatal(err)
			}
			s.want(0, false, 4)
			reqs := rk.Requirements()
			if rk.epoch() != 4 || !reqs.NodeBlacklisted("b/07", "") || !reqs.NodeBlacklisted("", "x") || reqs.MinBandwidth() != 2e6 {
				t.Fatalf("successor epoch %d blacklist %v/%v bw %v", rk.epoch(),
					reqs.BlacklistedNodes(), reqs.BlacklistedClusters(), reqs.MinBandwidth())
			}
			if got := strings.Join(s.act.labels, "|"); got != "root coordinator failover: cluster b elected (epoch 4)" {
				t.Fatalf("annotations %q", got)
			}
			// The other subs' caches union-merge in with their summaries.
			rk.Receive(ClusterSummary{Cluster: "c", Epoch: 4, Req: ReqState{Nodes: []core.NodeID{"c/01"}}})
			if !reqs.NodeBlacklisted("c/01", "") || !reqs.NodeBlacklisted("b/07", "") {
				t.Fatal("summary-borne cache did not merge into the successor")
			}
		}},
		{"TickTree returns the reset exactly when the tick acted", func(t *testing.T, s *treeScript) {
			s.period(true) // efficiency 0.4: inside the band
			s.deliver()
			if rec, rst := s.root.TickTree(s.now, []core.ClusterID{"b"}, 1); rst != nil {
				t.Fatalf("in-band tick %q pushed a reset", rec.Action)
			}
			s.sub.Report(metrics.Report{Node: "b/00", Cluster: "b", Start: 1, End: 2, BusySec: 1, Speed: 1})
			s.sub.Report(metrics.Report{Node: "b/01", Cluster: "b", Start: 1, End: 2, BusySec: 1, Speed: 1})
			s.root.Receive(s.sub.Period(2, []core.NodeID{"b/00", "b/01"}))
			rec, rst := s.root.TickTree(2, []core.ClusterID{"b"}, 2)
			if rec.Added == 0 || rst == nil || rst.Epoch != 1 {
				t.Fatalf("busy tick %+v reset %+v, want an add and the epoch-1 reset", rec, rst)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.script(t, newTreeScript(t)) })
	}
}

// blacklistedRoot is a root that has learned n node evictions, one
// cluster eviction and a bandwidth bound.
func blacklistedRoot(tb testing.TB, n int) *RootKernel {
	tb.Helper()
	ecfg := core.DefaultConfig()
	rk, err := NewRoot(Config{Engine: &ecfg}, &scriptedActuator{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rk.reqs.BlacklistNode(core.NodeID(fmt.Sprintf("c%02d/%04d", i%40, i)))
	}
	rk.reqs.BlacklistCluster("bad")
	rk.reqs.LearnMinBandwidth(1e5)
	return rk
}

// An ack costs what the root learned since the last one: answering a
// sub's steady-state summary (which echoes the snapshot the root handed
// out) allocates nothing, whether the root knows 10 evictions or 2,000,
// and every ack between two facts carries the same snapshot.
func TestReceiveAllocsDoNotGrowWithBlacklist(t *testing.T) {
	for _, n := range []int{10, 2000} {
		rk := blacklistedRoot(t, n)
		sum := ClusterSummary{Cluster: "c00", Seq: 1, Time: 1, Nodes: 1, Req: rk.ReqState()}
		first := rk.Receive(sum)
		if len(first.Req.Nodes) != n {
			t.Fatalf("ack carries %d blacklisted nodes, want %d", len(first.Req.Nodes), n)
		}
		if allocs := testing.AllocsPerRun(100, func() { rk.Receive(sum) }); allocs != 0 {
			t.Errorf("Receive with %d nodes blacklisted allocates %.1f per summary, want 0", n, allocs)
		}
		if again := rk.Receive(sum); &again.Req.Nodes[0] != &first.Req.Nodes[0] {
			t.Errorf("two acks with nothing learned in between carry different snapshots (%d nodes)", n)
		}
	}
}

// A state equal to the root's own snapshot teaches it nothing: no fact
// is added and the snapshot is not rebuilt. The equal state is a copy,
// as off the wire, not the root's own slices.
func TestAdoptEqualSnapshotIsNoOp(t *testing.T) {
	rk := blacklistedRoot(t, 50)
	own := rk.ReqState()
	echo := ReqState{
		Nodes:        append([]core.NodeID(nil), own.Nodes...),
		Clusters:     append([]core.ClusterID(nil), own.Clusters...),
		MinBandwidth: own.MinBandwidth,
	}
	rk.adoptReqState(echo)
	rk.adoptReqState(ReqState{})
	after := rk.ReqState()
	if &after.Nodes[0] != &own.Nodes[0] || &after.Clusters[0] != &own.Clusters[0] || after.MinBandwidth != 1e5 {
		t.Fatalf("adopting an equal state changed the root's: %d nodes, %v, bw %v",
			len(after.Nodes), after.Clusters, after.MinBandwidth)
	}
	if !rk.reqs.NodeBlacklisted(own.Nodes[0], "") {
		t.Errorf("known node %s left the blacklist", own.Nodes[0])
	}
}

// Failover's union-merge: a strict superset adds exactly what the root
// did not know and leaves what it knew alone.
func TestAdoptSupersetSnapshotAddsTheDifference(t *testing.T) {
	rk := blacklistedRoot(t, 3)
	own := rk.ReqState()
	super := ReqState{
		Nodes:        append([]core.NodeID{"a/new"}, own.Nodes...), // order on the wire is the sender's
		Clusters:     append([]core.ClusterID{"worse"}, own.Clusters...),
		MinBandwidth: 3e5,
	}
	rk.adoptReqState(super)
	got := rk.ReqState()
	wantNodes := append([]core.NodeID{"a/new"}, own.Nodes...)
	if !reflect.DeepEqual(got.Nodes, wantNodes) || !reflect.DeepEqual(got.Clusters, []core.ClusterID{"bad", "worse"}) || got.MinBandwidth != 3e5 {
		t.Fatalf("after the merge: %v %v bw %v", got.Nodes, got.Clusters, got.MinBandwidth)
	}
	if len(own.Nodes) != 3 || len(own.Clusters) != 1 {
		t.Fatalf("the merge wrote into a snapshot already handed out: %v %v", own.Nodes, own.Clusters)
	}
	for _, node := range []core.NodeID{"a/new", own.Nodes[0]} {
		if !rk.reqs.NodeBlacklisted(node, "") {
			t.Errorf("node %s is not blacklisted after the merge", node)
		}
	}
	for _, cluster := range []core.ClusterID{"worse", "bad"} {
		if !rk.reqs.NodeBlacklisted("", cluster) {
			t.Errorf("cluster %s is not blacklisted after the merge", cluster)
		}
	}
}

// Under DisableBlacklist a snapshot still merges its bandwidth bound,
// and only that.
func TestAdoptSnapshotUnderDisableBlacklist(t *testing.T) {
	ecfg := core.DefaultConfig()
	rk, err := NewRoot(Config{Engine: &ecfg, DisableBlacklist: true}, &scriptedActuator{})
	if err != nil {
		t.Fatal(err)
	}
	rk.adoptReqState(ReqState{Nodes: []core.NodeID{"a/01"}, Clusters: []core.ClusterID{"a"}, MinBandwidth: 2e5})
	got := rk.ReqState()
	if len(got.Nodes) != 0 || len(got.Clusters) != 0 || got.MinBandwidth != 2e5 {
		t.Fatalf("merged %v %v bw %v, want the bandwidth bound alone", got.Nodes, got.Clusters, got.MinBandwidth)
	}
}

// FuzzTreeFrames feeds arbitrary bytes to the decoders of the three
// frames every adaptive job's coordinator tree exchanges, seeded from
// their golden table (frametest.Fuzz states the property).
func FuzzTreeFrames(f *testing.F) { frametest.Fuzz(f, treeGolden) }
