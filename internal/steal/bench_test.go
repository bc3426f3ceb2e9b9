package steal

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkNextViewCRS measures one victim-selection round on a 36-node,
// 3-cluster snapshot — the per-idle-loop cost the satin worker pays.
func BenchmarkNextViewCRS(b *testing.B) {
	benchNext(b, CRS)
}

func BenchmarkNextViewRandom(b *testing.B) {
	benchNext(b, Random)
}

func benchNext(b *testing.B, p Policy) {
	var ms []Member
	for c := 0; c < 3; c++ {
		for n := 0; n < 12; n++ {
			ms = append(ms, Member{
				ID:      core.NodeID(fmt.Sprintf("fs%d/%02d", c, n)),
				Cluster: core.ClusterID(fmt.Sprintf("fs%d", c)),
			})
		}
	}
	view := NewView()
	view.Rebuild(ms)
	e := New(p, "fs0/00", "fs0", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := e.NextView(0, view)
		if d.HasSync {
			e.SyncDone(false)
		}
		if d.HasAsync {
			e.AsyncDone(false)
		}
	}
}

// BenchmarkNextViewRotating measures a steal round the way the
// 2,000-node simulated world pays it: 2,000 engines over one 40 x 50
// view, each round on another engine, stepped in a prime stride, so a
// round finds its engine cold in cache. Reusing one engine, as the
// rounds above do, keeps its generator state hot.
func BenchmarkNextViewRotating(b *testing.B) {
	const clusters, perCluster, stride = 40, 50, 997
	var ms []Member
	for c := 0; c < clusters; c++ {
		cl := core.ClusterID(fmt.Sprintf("g%03d", c))
		for n := 0; n < perCluster; n++ {
			ms = append(ms, Member{ID: core.NodeID(fmt.Sprintf("%s/%02d", cl, n)), Cluster: cl})
		}
	}
	view := NewView()
	view.Rebuild(ms)
	engines := make([]*Engine, len(ms))
	for i, m := range ms {
		engines[i] = New(CRS, m.ID, m.Cluster, SeedFor(1, m.ID))
		engines[i].NextView(0, view) // locate self in the view outside the timed loop
		engines[i].SyncDone(false)
		engines[i].AsyncDone(false)
	}
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		e := engines[k]
		k = (k + stride) % len(engines)
		d := e.NextView(float64(i), view)
		if d.HasSync {
			e.SyncDone(false)
		}
		if d.HasAsync {
			e.AsyncDone(false)
		}
	}
}
