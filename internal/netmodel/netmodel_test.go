package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topo"
	"repro/internal/vtime"
)

func TestPipeSingleTransfer(t *testing.T) {
	p := NewPipe(1e6, 0.01) // 1 MB/s, 10 ms
	done := p.Transfer(0, 5e5)
	want := vtime.Time(0.5 + 0.01)
	if math.Abs(float64(done-want)) > 1e-12 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestPipeFIFOQueueing(t *testing.T) {
	p := NewPipe(1e6, 0) // 1 MB/s, no latency
	d1 := p.Transfer(0, 1e6)
	d2 := p.Transfer(0, 1e6) // queued behind d1
	if d1 != 1 || d2 != 2 {
		t.Fatalf("d1=%v d2=%v, want 1 and 2", d1, d2)
	}
	// A transfer after the link drained starts immediately.
	d3 := p.Transfer(5, 1e6)
	if d3 != 6 {
		t.Fatalf("d3=%v, want 6", d3)
	}
}

func TestPipeSetBandwidth(t *testing.T) {
	p := NewPipe(1e6, 0)
	p.SetBandwidth(1e5) // throttle to 100 KB/s
	if done := p.Transfer(0, 1e5); done != 1 {
		t.Fatalf("throttled transfer done = %v, want 1", done)
	}
}

func TestPipeObservedBandwidth(t *testing.T) {
	p := NewPipe(2e6, 0.001)
	if p.ObservedBandwidth() != 0 {
		t.Fatal("idle pipe should observe 0")
	}
	p.Transfer(0, 4e6)
	if ob := p.ObservedBandwidth(); math.Abs(ob-2e6) > 1 {
		t.Fatalf("observed = %v, want 2e6", ob)
	}
}

func TestPipePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bandwidth": func() { NewPipe(0, 0) },
		"set zero":       func() { NewPipe(1, 0).SetBandwidth(0) },
		"negative size":  func() { NewPipe(1, 0).Transfer(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: FIFO pipes never reorder and completion times are
// non-decreasing in issue order.
func TestPipeFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := NewPipe(1e3, 0.002)
		prev := vtime.Time(-1)
		now := vtime.Time(0)
		for _, s := range sizes {
			done := p.Transfer(now, float64(s))
			if done < prev || done < now {
				return false
			}
			prev = done
			now += 0.001
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func testTopology() topo.Topology {
	mk := func(id topo.ClusterID) topo.Cluster {
		return topo.Cluster{
			ID: id, Nodes: 4, Speed: 1,
			LANLatency: 0.0001, LANBandwidth: 10e6,
			WANLatency: 0.002, UplinkBandwidth: 1e6,
		}
	}
	return topo.Topology{Clusters: []topo.Cluster{mk("A"), mk("B")}}
}

func TestNetIntraVsInter(t *testing.T) {
	n := New(testTopology())
	intra := n.Intra(0, "A", 1e6)
	inter := n.Inter(0, "A", "B", 1e6)
	if intra >= inter {
		t.Fatalf("intra %v should beat inter %v", intra, inter)
	}
	// intra: 0.0001 + 1e6/10e6 = 0.1001
	if math.Abs(float64(intra)-0.1001) > 1e-9 {
		t.Errorf("intra = %v, want 0.1001", intra)
	}
	// inter: both access links reserved in parallel; delivery at the
	// slower one (1s + 2ms latency)
	if math.Abs(float64(inter)-1.002) > 1e-9 {
		t.Errorf("inter = %v, want 1.002", inter)
	}
}

func TestNetThrottledUplinkDelaysEverything(t *testing.T) {
	n := New(testTopology())
	n.Uplink("B").SetBandwidth(1e3) // ~paper's 100KB/s scenario, scaled
	d := n.Inter(0, "A", "B", 1e5)
	// A side: 0.1s; B side: 100s. Total > 100.
	if d < 100 {
		t.Fatalf("throttled inter delivery %v, want > 100s", d)
	}
	// Traffic not involving B is unaffected.
	if d := n.Inter(0, "A", "A", 10); d > 1 {
		// (degenerate same-cluster inter call still works)
		t.Fatalf("same-cluster inter = %v", d)
	}
}

func TestNetLatencies(t *testing.T) {
	n := New(testTopology())
	if l := n.Latency("A", "A"); l != 0.0001 {
		t.Errorf("intra latency = %v", l)
	}
	if l := n.Latency("A", "B"); l != 0.004 {
		t.Errorf("inter latency = %v, want 0.004", l)
	}
	if l := n.Latency("missing", "missing"); l != 0 {
		t.Errorf("missing cluster LAN latency = %v", l)
	}
}

func TestNetUnknownClustersAreNoops(t *testing.T) {
	n := New(testTopology())
	if d := n.Intra(7, "missing", 1e6); d != 7 {
		t.Errorf("Intra on missing cluster = %v, want now", d)
	}
	if d := n.Inter(7, "missing", "B", 1e6); d != 7 {
		t.Errorf("Inter on missing cluster = %v, want now", d)
	}
}

func TestTopoDAS2(t *testing.T) {
	d := topo.DAS2()
	if err := d.Validate(); err != nil {
		t.Fatalf("DAS2 invalid: %v", err)
	}
	if got := d.TotalNodes(); got != 72+4*32 {
		t.Errorf("TotalNodes = %d, want 200", got)
	}
	c, ok := d.Cluster("fs0")
	if !ok || c.Nodes != 72 {
		t.Errorf("fs0 = %+v ok=%v", c, ok)
	}
	if _, ok := d.Cluster("nope"); ok {
		t.Error("unknown cluster found")
	}
	if name := topo.NodeName("fs1", 3); name != "fs1/03" {
		t.Errorf("NodeName = %q", name)
	}
}

func TestTopoValidate(t *testing.T) {
	bad := []topo.Topology{
		{},
		{Clusters: []topo.Cluster{{ID: "", Nodes: 1, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1}}},
		{Clusters: []topo.Cluster{{ID: "a", Nodes: -1, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1}}},
		{Clusters: []topo.Cluster{{ID: "a", Nodes: 1, Speed: 0, LANBandwidth: 1, UplinkBandwidth: 1}}},
		{Clusters: []topo.Cluster{{ID: "a", Nodes: 1, Speed: 1, LANBandwidth: 0, UplinkBandwidth: 1}}},
		{Clusters: []topo.Cluster{
			{ID: "a", Nodes: 1, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1},
			{ID: "a", Nodes: 1, Speed: 1, LANBandwidth: 1, UplinkBandwidth: 1},
		}},
		{Clusters: []topo.Cluster{{ID: "a", Nodes: 1, Speed: 1, LANLatency: -1, LANBandwidth: 1, UplinkBandwidth: 1}}},
	}
	for i, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("case %d: invalid topology accepted", i)
		}
	}
}
