package transport

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestInProcDelivery(t *testing.T) {
	f := NewInProc(nil)
	defer f.Close()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- m })
	if err := a.Send("b", "hello", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "a" || m.To != "b" || m.Kind != "hello" || string(m.Payload) != "payload" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestInProcDuplicateName(t *testing.T) {
	f := NewInProc(nil)
	defer f.Close()
	if _, err := f.Endpoint("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("x"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestInProcUnknownDestination(t *testing.T) {
	f := NewInProc(nil)
	defer f.Close()
	a, _ := f.Endpoint("a")
	if err := a.Send("ghost", "k", nil); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
}

func TestInProcClosedEndpoint(t *testing.T) {
	f := NewInProc(nil)
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	a.Close()
	if err := a.Send("b", "k", nil); err != ErrClosed {
		t.Fatalf("send from closed = %v, want ErrClosed", err)
	}
	if err := b.Send("a", "k", nil); err == nil {
		t.Fatal("send to detached endpoint succeeded")
	}
}

func TestInProcLatency(t *testing.T) {
	f := NewInProc(func(from, to string) LinkParams {
		return LinkParams{Latency: 30 * time.Millisecond}
	})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(Message) { got <- time.Now() })
	start := time.Now()
	a.Send("b", "k", nil)
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", d)
	}
}

// TestInProcSubMillisecondLatency pins the delay fidelity of a shaped
// link: a 200 µs hop takes 200 µs, not the millisecond a time.Sleep on
// an idle P is rounded up to. Frames go one at a time, each timed from
// before the send to inside the handler.
func TestInProcSubMillisecondLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the portable sleepFine is only as fine as the platform's timers")
	}
	const latency = 200 * time.Microsecond
	f := NewInProc(func(from, to string) LinkParams {
		return LinkParams{Latency: latency}
	})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(Message) { got <- time.Now() })
	hops := make([]time.Duration, 200)
	for i := range hops {
		start := time.Now()
		a.Send("b", "k", nil)
		hops[i] = (<-got).Sub(start)
		if hops[i] < latency {
			t.Fatalf("frame %d delivered after %v, before its %v latency", i, hops[i], latency)
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	p50 := hops[len(hops)/2]
	t.Logf("hop p50 %v, p90 %v, max %v", p50, hops[len(hops)*9/10], hops[len(hops)-1])
	if p50 > 500*time.Microsecond {
		t.Errorf("hop p50 %v on a %v link, want <= 500µs", p50, latency)
	}
}

func TestInProcBandwidthSerialises(t *testing.T) {
	f := NewInProc(func(from, to string) LinkParams {
		return LinkParams{Bandwidth: 100e3} // 100 KB/s
	})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var count atomic.Int32
	done := make(chan struct{}, 4)
	b.SetHandler(func(Message) { count.Add(1); done <- struct{}{} })
	payload := make([]byte, 2000) // 20 ms each at 100 KB/s
	start := time.Now()
	for i := 0; i < 3; i++ {
		a.Send("b", "k", payload)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("3 x 2KB at 100KB/s delivered in %v, want >= ~60ms (serialised)", d)
	}
}

func TestInProcOrderPreservedPerLink(t *testing.T) {
	f := NewInProc(func(from, to string) LinkParams {
		return LinkParams{Bandwidth: 1e6}
	})
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var mu sync.Mutex
	var got []string
	done := make(chan struct{}, 16)
	b.SetHandler(func(m Message) {
		mu.Lock()
		got = append(got, m.Kind)
		mu.Unlock()
		done <- struct{}{}
	})
	for i := 0; i < 10; i++ {
		a.Send("b", string(rune('0'+i)), make([]byte, 1000))
	}
	for i := 0; i < 10; i++ {
		<-done
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

// Per-pair serialisation (free) and link-worker (links) state must be
// released when endpoints close: a long-lived fabric with churning
// endpoints (provisioned and evicted grid nodes) must not grow without
// bound.
func TestInProcPairStateReleasedOnClose(t *testing.T) {
	link := func(from, to string) LinkParams {
		return LinkParams{Bandwidth: 1e9} // populate f.free on every send
	}
	f := NewInProc(link)
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan Message, 4)
	a.SetHandler(func(m Message) { got <- m })
	b.SetHandler(func(m Message) { got <- m })
	if err := a.Send("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", "k", []byte("y")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
	f.mu.Lock()
	frees, links := len(f.free), len(f.links)
	f.mu.Unlock()
	if frees == 0 || links == 0 {
		t.Fatalf("test did not populate pair state (free=%d links=%d)", frees, links)
	}
	a.Close()
	b.Close()
	f.mu.Lock()
	frees, links = len(f.free), len(f.links)
	f.mu.Unlock()
	if frees != 0 || links != 0 {
		t.Fatalf("pair state leaked after endpoint close: free=%d links=%d", frees, links)
	}
}

// Closing the fabric itself must also drop the accumulated pair state.
func TestInProcPairStateReleasedOnFabricClose(t *testing.T) {
	f := NewInProc(func(string, string) LinkParams { return LinkParams{Bandwidth: 1e9} })
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	b.SetHandler(func(Message) {})
	a.Send("b", "k", []byte("x"))
	f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) != 0 || len(f.links) != 0 {
		t.Fatalf("pair state leaked after fabric close: free=%d links=%d",
			len(f.free), len(f.links))
	}
}

// Closing the fabric drops the frames in flight; it does not wait out
// the latency of frames nobody will receive. Closing an endpoint is
// different: what it sent before it detached still arrives.
func TestInProcCloseDoesNotWaitOutLatency(t *testing.T) {
	f := NewInProc(func(string, string) LinkParams { return LinkParams{Latency: 300 * time.Millisecond} })
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var delivered atomic.Int32
	b.SetHandler(func(Message) { delivered.Add(1) })
	for i := 0; i < 3; i++ {
		if err := a.Send("b", "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // the link worker is asleep towards the first deadline
	start := time.Now()
	f.Close()
	f.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with frames 300 ms from their deadline", took)
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d frames delivered by a closed fabric", n)
	}

	f = NewInProc(func(string, string) LinkParams { return LinkParams{Latency: 20 * time.Millisecond} })
	defer f.Close()
	a, _ = f.Endpoint("a")
	b, _ = f.Endpoint("b")
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- m })
	a.Send("b", "last words", nil)
	a.Close()
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("a frame sent before its sender's endpoint closed never arrived")
	}
}
