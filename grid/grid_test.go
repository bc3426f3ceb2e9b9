// Package grid_test holds end-to-end checks of the simulation library
// as an example program uses it: DAS-2 topology, Barnes-Hut workload,
// des.Run with and without the coordinator, and the scenario registry.
// The directory has no non-test code.
package grid_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/expt"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestSimulateQuickstart(t *testing.T) {
	p := des.Params{
		Topo: topo.DAS2(),
		Spec: workload.BarnesHut(100000, 5),
		Seed: 1,
		Initial: []des.Alloc{
			{Cluster: "fs0", Count: 12},
			{Cluster: "fs1", Count: 12},
		},
	}
	res, err := des.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Iterations) != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSimulateAdaptive(t *testing.T) {
	p := des.Params{
		Topo:    topo.DAS2(),
		Spec:    workload.BarnesHut(100000, 30),
		Seed:    1,
		Initial: []des.Alloc{{Cluster: "fs0", Count: 8}},
	}
	p.Mon = des.DefaultMonitor()
	th := core.DefaultConfig()
	p.Adapt = &th
	res, err := des.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalNodes <= 8 {
		t.Fatalf("adaptive run did not grow: final=%d", res.FinalNodes)
	}
	if len(res.Periods) == 0 {
		t.Fatal("no coordinator periods")
	}
}

func TestSimulateRejectsBadParams(t *testing.T) {
	if _, err := des.Run(des.Params{}); err == nil {
		t.Fatal("empty params accepted")
	}
	p := des.Params{
		Topo:    topo.DAS2(),
		Spec:    workload.BarnesHut(1000, 3),
		Initial: []des.Alloc{{Cluster: "nope", Count: 3}},
	}
	if _, err := des.Run(p); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

func TestScenarioRegistry(t *testing.T) {
	scs := expt.All()
	if len(scs) < 8 {
		t.Fatalf("got %d scenarios, want >= 8 (1, 2a-2c, 3-7)", len(scs))
	}
	ids := map[string]bool{}
	for _, sc := range scs {
		if sc.ID == "" || sc.Build == nil {
			t.Errorf("malformed scenario %+v", sc.ID)
		}
		if ids[sc.ID] {
			t.Errorf("duplicate scenario id %s", sc.ID)
		}
		ids[sc.ID] = true
	}
	for _, want := range []string{"1", "2a", "2b", "2c", "3", "4", "5", "6"} {
		if !ids[want] {
			t.Errorf("missing scenario %s", want)
		}
	}
	if _, ok := expt.ByID("4"); !ok {
		t.Error("ByID(4) failed")
	}
	if _, ok := expt.ByID("zzz"); ok {
		t.Error("ByID(zzz) found something")
	}
}

func TestVaryingParallelism(t *testing.T) {
	w := workload.VaryingParallelism(workload.BarnesHut(100000, 10), func(i int) float64 {
		if i >= 5 {
			return 0.5
		}
		return 1
	})
	if w.IterWork(0) <= w.IterWork(7) {
		t.Fatalf("scaling not applied: %v vs %v", w.IterWork(0), w.IterWork(7))
	}
}
