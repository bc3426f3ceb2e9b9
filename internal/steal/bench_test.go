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
