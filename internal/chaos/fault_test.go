package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// collector gathers delivered frame kinds in arrival order.
type collector struct {
	mu    sync.Mutex
	kinds []string
}

func (c *collector) handler(m transport.Message) {
	c.mu.Lock()
	c.kinds = append(c.kinds, m.Kind)
	c.mu.Unlock()
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.kinds...)
}

func (c *collector) waitLen(t *testing.T, n int, d time.Duration) []string {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		got := c.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pair builds a wrapped fabric with a sender in cluster "a" and a
// receiver in cluster "b".
func pair(t *testing.T, seed int64) (*FaultTransport, transport.Endpoint, *collector, func()) {
	t.Helper()
	inner := transport.NewInProc(nil)
	ft := NewFaultTransport(inner, seed)
	src, err := ft.Endpoint("satin:a/00")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ft.Endpoint("satin:b/00")
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	dst.SetHandler(c.handler)
	return ft, src, c, func() { ft.Close(); inner.Close() }
}

// Same seed, same fault pattern: the drop sequence of a link is a pure
// function of the seed and the link's own frame order.
func TestChaosFaultTransportDeterministicDrop(t *testing.T) {
	run := func() []string {
		ft, src, c, done := pair(t, 42)
		defer done()
		ft.SetFaults("a", "b", Faults{Drop: 0.5})
		for i := 0; i < 50; i++ {
			if err := src.Send("satin:b/00", fmt.Sprintf("m%02d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		st := ft.Stats()
		got := c.waitLen(t, 50-int(st.Dropped), time.Second)
		if int(st.Dropped) == 0 || int(st.Dropped) == 50 {
			t.Fatalf("drop=0.5 dropped %d of 50 frames", st.Dropped)
		}
		if len(got) != 50-int(st.Dropped) {
			t.Fatalf("delivered %d frames, stats say %d dropped of 50", len(got), st.Dropped)
		}
		return got
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, different survivors at %d: %s vs %s", i, first[i], second[i])
		}
	}
}

func TestChaosFaultTransportPartitionAndHeal(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 1)
	defer ft.Close()
	a, _ := ft.Endpoint("satin:a/00")
	b, _ := ft.Endpoint("satin:b/00")
	b2, _ := ft.Endpoint("satin:b/01")
	cb, cb2 := &collector{}, &collector{}
	b.SetHandler(cb.handler)
	b2.SetHandler(cb2.handler)

	ft.Partition("b")
	if err := a.Send("satin:b/00", "cross", nil); err != nil {
		t.Fatal(err)
	}
	// Intra-cluster traffic keeps flowing inside the partitioned site.
	if err := b.Send("satin:b/01", "lan", nil); err != nil {
		t.Fatal(err)
	}
	if got := cb2.waitLen(t, 1, time.Second); len(got) != 1 || got[0] != "lan" {
		t.Fatalf("intra-cluster frame lost during partition: %v", got)
	}
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("cross-cluster frame crossed a partition: %v", got)
	}
	if st := ft.Stats(); st.Partitioned != 1 {
		t.Fatalf("Partitioned = %d, want 1", st.Partitioned)
	}

	ft.Heal("b")
	if err := a.Send("satin:b/00", "after", nil); err != nil {
		t.Fatal(err)
	}
	if got := cb.waitLen(t, 1, time.Second); len(got) != 1 || got[0] != "after" {
		t.Fatalf("frame lost after heal: %v", got)
	}
}

func TestChaosFaultTransportCrashNode(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 1)
	defer ft.Close()
	a, _ := ft.Endpoint("satin:a/00")
	reg, _ := ft.Endpoint("reg:a/00") // same node, different prefix
	b, _ := ft.Endpoint("satin:b/00")
	cb := &collector{}
	b.SetHandler(cb.handler)

	ft.CrashNode("a/00")
	if err := a.Send("satin:b/00", "from-crashed", nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Send("satin:b/00", "heartbeat", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("crashed node's frames were delivered: %v", got)
	}
	if st := ft.Stats(); st.Crashed != 2 {
		t.Fatalf("Crashed = %d, want 2", st.Crashed)
	}
	// Frames TO the crashed node vanish too.
	ca := &collector{}
	a.SetHandler(ca.handler)
	if err := b.Send("satin:a/00", "to-crashed", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := ca.snapshot(); len(got) != 0 {
		t.Fatalf("frames reached a crashed node: %v", got)
	}
}

func TestChaosFaultTransportDuplicate(t *testing.T) {
	ft, src, c, done := pair(t, 3)
	defer done()
	ft.SetFaults("a", "b", Faults{Duplicate: 1.0})
	if err := src.Send("satin:b/00", "dup", nil); err != nil {
		t.Fatal(err)
	}
	got := c.waitLen(t, 2, time.Second)
	if len(got) != 2 || got[0] != "dup" || got[1] != "dup" {
		t.Fatalf("duplicate=1.0 delivered %v, want two copies", got)
	}
}

func TestChaosFaultTransportDelay(t *testing.T) {
	ft, src, c, done := pair(t, 3)
	defer done()
	ft.SetFaults("a", "b", Faults{Delay: 80 * time.Millisecond})
	start := time.Now()
	if err := src.Send("satin:b/00", "slow", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.snapshot(); len(got) != 0 {
		t.Fatal("delayed frame arrived immediately")
	}
	got := c.waitLen(t, 1, time.Second)
	if len(got) != 1 {
		t.Fatalf("delayed frame never arrived: %v", got)
	}
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= ~80ms", el)
	}
}

// Delays model a slow link, not a reordering one: under Jitter, a
// constant Delay, and a Delay with duplicates, 2,000 back-to-back frames
// arrive in send order, each duplicate right behind its original, and a
// frame sent once the faults are cleared still arrives after them.
func TestChaosFaultTransportJitterKeepsOrder(t *testing.T) {
	const frames = 2000
	for _, tc := range []struct {
		name string
		f    Faults
	}{
		{"jitter", Faults{Jitter: 80 * time.Millisecond}},
		{"delay", Faults{Delay: 2 * time.Millisecond}},
		{"delay+duplicate", Faults{Delay: 2 * time.Millisecond, Duplicate: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft, src, c, done := pair(t, 7)
			defer done()
			ft.SetFaults("a", "b", tc.f)
			for i := 0; i < frames; i++ {
				if err := src.Send("satin:b/00", fmt.Sprintf("m%04d", i), nil); err != nil {
					t.Fatal(err)
				}
			}
			ft.ClearFaults()
			if err := src.Send("satin:b/00", fmt.Sprintf("m%04d", frames), nil); err != nil {
				t.Fatal(err)
			}
			want := frames + 1 + int(ft.Stats().Duplicated)
			got := c.waitLen(t, want, 5*time.Second)
			if len(got) != want {
				t.Fatalf("delivered %d of %d copies", len(got), want)
			}
			inversions := 0
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					inversions++
				}
			}
			if inversions != 0 {
				t.Fatalf("%d of %d copies arrived ahead of one sent before them", inversions, want)
			}
		})
	}
}

func TestChaosFaultTransportBandwidthSerialises(t *testing.T) {
	ft, src, c, done := pair(t, 3)
	defer done()
	// 100 KB/s link, 10 KB frames: each takes 100ms on the wire.
	ft.SetFaults("a", "b", Faults{Bandwidth: 100e3})
	payload := make([]byte, 10_000)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := src.Send("satin:b/00", fmt.Sprintf("f%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	got := c.waitLen(t, 3, 2*time.Second)
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3 frames", len(got))
	}
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("3x10KB over 100KB/s finished in %v, want >= ~300ms", el)
	}
}

// Wildcard rules shape only inter-cluster traffic; the LAN inside a
// cluster stays clean unless faulted explicitly.
func TestChaosFaultTransportWildcardSparesLAN(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 1)
	defer ft.Close()
	ft.SetFaults("*", "*", Faults{Drop: 1.0})
	a0, _ := ft.Endpoint("satin:a/00")
	a1, _ := ft.Endpoint("satin:a/01")
	b0, _ := ft.Endpoint("satin:b/00")
	ca, cb := &collector{}, &collector{}
	a1.SetHandler(ca.handler)
	b0.SetHandler(cb.handler)
	if err := a0.Send("satin:a/01", "lan", nil); err != nil {
		t.Fatal(err)
	}
	if err := a0.Send("satin:b/00", "wan", nil); err != nil {
		t.Fatal(err)
	}
	if got := ca.waitLen(t, 1, time.Second); len(got) != 1 {
		t.Fatalf("wildcard rule ate a LAN frame: %v", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("drop=1.0 wildcard delivered a WAN frame: %v", got)
	}
}
