package steal

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// The steal decision sits on every idle node's hot path: against a
// built view, a full NextView/SyncDone/AsyncDone round must not
// allocate at all (ISSUE 7 ceiling; BENCH_5 measured 10 allocs/op
// before the value-Directive rework).
func TestStealRoundAllocFree(t *testing.T) {
	members := make([]Member, 64)
	for i := range members {
		members[i] = Member{
			ID:      core.NodeID(fmt.Sprintf("n%02d", i)),
			Cluster: core.ClusterID(fmt.Sprintf("c%d", i%4)),
		}
	}
	view := NewView()
	view.Rebuild(members)
	for _, policy := range []Policy{CRS, Random} {
		e := New(policy, members[0].ID, members[0].Cluster, 1)
		allocs := testing.AllocsPerRun(100, func() {
			d := e.NextView(0, view)
			if d.HasSync {
				e.SyncDone(false)
			}
			if d.HasAsync {
				e.AsyncDone(true)
			}
		})
		if allocs != 0 {
			t.Errorf("policy %v: steal round allocates %.1f/op, want 0", policy, allocs)
		}
	}
}
