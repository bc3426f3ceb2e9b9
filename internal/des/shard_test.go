package des

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/workload"
)

func sharded(p Params) Params {
	p = adaptive(p)
	p.Sharded = true
	return p
}

// decisionSeq reduces a run's period log to the decisions that acted —
// the sequence the flat/sharded parity is defined over (timing of the
// interleaved "none" ticks differs by the extra sub->root hop).
type decision struct {
	Action         string
	Added, Removed int
}

func decisionSeq(res *Result) []decision {
	var out []decision
	for _, pr := range res.Periods {
		if pr.Action == "" || pr.Action == "none" {
			continue
		}
		out = append(out, decision{pr.Action, pr.Added, pr.Removed})
	}
	return out
}

// TestShardedDeterminismSameSeed: the sharded tree is as deterministic
// as the flat kernel — same seed, same run, byte for byte.
func TestShardedDeterminismSameSeed(t *testing.T) {
	run := func() *Result {
		p := sharded(baseParams(8))
		p.Initial = []Alloc{{Cluster: "fs0", Count: 8}}
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime || len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("same seed diverged: %v vs %v", a.Runtime, b.Runtime)
	}
	for i := range a.Iterations {
		if a.Iterations[i] != b.Iterations[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, a.Iterations[i], b.Iterations[i])
		}
	}
	if len(a.Periods) != len(b.Periods) {
		t.Fatalf("period counts differ: %d vs %d", len(a.Periods), len(b.Periods))
	}
}

// TestShardedFlatDecisionParityDES is the satellite parity check at the
// simulator level: on a small world with identical seeds the sharded
// tree must reproduce the flat coordinator's decision sequence (the
// paper's expansion scenario: grow from 8 under-provisioned nodes).
func TestShardedFlatDecisionParityDES(t *testing.T) {
	base := func() Params {
		p := baseParams(60)
		p.Initial = []Alloc{{Cluster: "fs0", Count: 8}}
		return adaptive(p)
	}
	flat, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	ps := base()
	ps.Sharded = true
	shard, err := Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Completed || !shard.Completed {
		t.Fatalf("completion diverged: flat=%v sharded=%v", flat.Completed, shard.Completed)
	}
	fd, sd := decisionSeq(flat), decisionSeq(shard)
	t.Logf("flat decisions:    %+v", fd)
	t.Logf("sharded decisions: %+v", sd)
	if len(fd) != len(sd) {
		t.Fatalf("decision counts diverge: flat %d, sharded %d", len(fd), len(sd))
	}
	for i := range fd {
		if fd[i] != sd[i] {
			t.Errorf("decision %d diverges: flat %+v, sharded %+v", i, fd[i], sd[i])
		}
	}
	if flat.FinalNodes != shard.FinalNodes {
		t.Errorf("final nodes diverge: flat %d, sharded %d", flat.FinalNodes, shard.FinalNodes)
	}
	if flat.MinBandwidth != shard.MinBandwidth {
		t.Errorf("learned bandwidth diverges: flat %v, sharded %v", flat.MinBandwidth, shard.MinBandwidth)
	}
}

// TestShardedRootCrashFailover kills the root coordinator mid-run: the
// sub-coordinators must detect the silence through missed acks, elect
// the lowest live cluster as successor, and resume adaptation — the run
// completes and ticks with fresh statistics continue after the crash.
func TestShardedRootCrashFailover(t *testing.T) {
	p := sharded(baseParams(150)) // long enough to watch the resumed loop
	crashAt := 2.5 * p.Mon.Period // mid-run, after adaptation has begun
	p.Events = []Injection{{At: crashAt, Kind: InjCrashRoot}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run with root crash did not complete (%d iterations)", len(res.Iterations))
	}
	notes := annotations(res)
	if !strings.Contains(notes, "root coordinator crashed") {
		t.Fatalf("crash annotation missing: %s", notes)
	}
	if !strings.Contains(notes, "root coordinator failover: cluster fs0 elected") {
		t.Fatalf("failover annotation missing: %s", notes)
	}
	// Adaptation resumed: after the failover window (crash + detection
	// periods) some tick again decided on fresh statistics.
	resumed := false
	for _, pr := range res.Periods {
		if pr.Time > crashAt+3*p.Mon.Period && pr.Stats > 0 {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Errorf("no post-failover tick saw fresh statistics")
	}
}

// TestShardedSubCrashRecovers kills one cluster's sub-coordinator: its
// reports are lost while it is down, the restarted sub re-learns the
// reset epoch from the root's next ack, and the run still completes.
func TestShardedSubCrashRecovers(t *testing.T) {
	p := sharded(baseParams(60))
	p.Events = []Injection{{At: 2.5 * p.Mon.Period, Kind: InjCrashSub, Cluster: "fs1"}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run with sub crash did not complete (%d iterations)", len(res.Iterations))
	}
	if !strings.Contains(annotations(res), "sub-coordinator of fs1 crashed") {
		t.Fatalf("sub crash annotation missing: %s", annotations(res))
	}
	// The coordinator kept ticking with statistics from the surviving
	// subs throughout.
	withStats := 0
	for _, pr := range res.Periods {
		if pr.Stats > 0 {
			withStats++
		}
	}
	if withStats == 0 {
		t.Error("no tick ever saw statistics")
	}
}

// bigGrid builds a uniform synthetic topology: clusters of equal size
// on healthy uplinks, the 10k-node world of ISSUE 8.
func bigGrid(clusters, perCluster int) topo.Topology {
	var t topo.Topology
	for i := 0; i < clusters; i++ {
		t.Clusters = append(t.Clusters, topo.Cluster{
			ID:              core.ClusterID(genClusterID(i)),
			Nodes:           perCluster,
			Speed:           1,
			LANLatency:      topo.LANLatency,
			LANBandwidth:    topo.FastEthernetBandwidth,
			WANLatency:      topo.WANLatencyOneWay,
			UplinkBandwidth: topo.BackboneUplink,
		})
	}
	return t
}

func genClusterID(i int) string {
	// Fixed-width IDs keep cluster ordering stable.
	const digits = "0123456789"
	return "g" + string(digits[i/100%10]) + string(digits[i/10%10]) + string(digits[i%10])
}

// scaleWorlds are the rows of TestShardedScaleWorld: uniform worlds of
// clusters x 100 nodes. Tier-1 runs the 2,000-node row; the 10,000-node
// row of ISSUE 8 (three minutes on its own) is appended under the
// `scale` build tag (scale_test.go, `make scale`).
var scaleWorlds = []scaleWorld{{"2k", 20}}

type scaleWorld struct {
	name     string
	clusters int
}

// TestShardedScaleWorld is the scale acceptance of the sharded tree: a
// large world runs to completion with every node participating and the
// root, which consumes only per-cluster summaries, ticking throughout.
func TestShardedScaleWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("scale worlds skipped in -short")
	}
	for _, w := range scaleWorlds {
		t.Run(w.name, func(t *testing.T) {
			const perCluster = 100
			p := Params{
				Topo: bigGrid(w.clusters, perCluster),
				Spec: workload.Spec{
					Name:                   "bigworld",
					Iterations:             2,
					WorkPerIteration:       float64(60 * w.clusters * perCluster), // ~60 s/node
					SequentialPerIteration: 2,
					Grain:                  10, // fine grain: keep every deque fed
					Irregularity:           0.3,
					BytesPerNode:           1e6,
					ExchangeBytes:          1e5,
					StealMsgBytes:          4096,
				},
				Seed: 1,
				Mon:  DefaultMonitor(),
			}
			p.Mon.Period = 45 // several root ticks inside the short run
			cfg := core.DefaultConfig()
			p.Adapt = &cfg
			p.Sharded = true
			p.ProposalCap = 8 // O(1) summaries: the big-grid configuration
			for i := 0; i < w.clusters; i++ {
				p.Initial = append(p.Initial, Alloc{Cluster: core.ClusterID(genClusterID(i)), Count: perCluster})
			}
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("%s-node run did not complete (%d/%d iterations, runtime %.0f)",
					w.name, len(res.Iterations), p.Spec.Iterations, res.Runtime)
			}
			if res.PeakNodes != w.clusters*perCluster {
				t.Errorf("peak nodes = %d, want %d", res.PeakNodes, w.clusters*perCluster)
			}
			if len(res.Periods) == 0 {
				t.Error("no coordinator ticks recorded")
			}
			t.Logf("runtime=%.0fs iters=%d periods=%d final=%d",
				res.Runtime, len(res.Iterations), len(res.Periods), res.FinalNodes)
		})
	}
}
