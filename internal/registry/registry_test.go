package registry

import (
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
)

func fastOpts() Options {
	return Options{HeartbeatInterval: 20 * time.Millisecond, FailureTimeout: 80 * time.Millisecond}
}

func waitEvent(t *testing.T, c *Client, kind EventKind) Event {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event channel closed while waiting for %v", kind)
			}
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v", kind)
		}
	}
}

func TestJoinAndMembership(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, err := NewServer(f, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a, err := Join(f, NodeInfo{ID: "a", Cluster: "c0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Join(f, NodeInfo{ID: "b", Cluster: "c1"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ev := waitEvent(t, a, Joined)
	if ev.Node.ID != "b" || ev.Node.Cluster != "c1" {
		t.Fatalf("joined event = %+v", ev)
	}
	if got := len(srv.Members()); got != 2 {
		t.Fatalf("server members = %d, want 2", got)
	}
	if got := len(b.Members()); got != 2 {
		t.Fatalf("b's view = %d members, want 2 (join-ack includes existing)", got)
	}
}

func TestGracefulLeave(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, _ := NewServer(f, fastOpts())
	defer srv.Close()
	a, _ := Join(f, NodeInfo{ID: "a"}, fastOpts())
	defer a.Close()
	b, _ := Join(f, NodeInfo{ID: "b"}, fastOpts())
	waitEvent(t, a, Joined)

	b.Leave()
	ev := waitEvent(t, a, Left)
	if ev.Node.ID != "b" {
		t.Fatalf("left event = %+v", ev)
	}
	if got := len(srv.Members()); got != 1 {
		t.Fatalf("server members = %d after leave, want 1", got)
	}
}

func TestCrashDetection(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, _ := NewServer(f, fastOpts())
	defer srv.Close()
	a, _ := Join(f, NodeInfo{ID: "a"}, fastOpts())
	defer a.Close()
	b, _ := Join(f, NodeInfo{ID: "b"}, fastOpts())
	waitEvent(t, a, Joined)

	b.Close() // abrupt: heartbeats stop, no leave message
	ev := waitEvent(t, a, Died)
	if ev.Node.ID != "b" {
		t.Fatalf("died event = %+v", ev)
	}
	// Membership views converge.
	deadline := time.Now().Add(time.Second)
	for len(a.Members()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("a's view = %v, want only itself", a.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSignalDelivery(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, _ := NewServer(f, fastOpts())
	defer srv.Close()
	a, _ := Join(f, NodeInfo{ID: "a"}, fastOpts())
	defer a.Close()

	if err := srv.Signal("a", "leave"); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, a, SignalEvent)
	if ev.Signal != "leave" || ev.Node.ID != "a" {
		t.Fatalf("signal event = %+v", ev)
	}
	if err := srv.Signal("ghost", "leave"); err == nil {
		t.Fatal("signal to unknown member succeeded")
	}
}

func TestClientToClientSignal(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, _ := NewServer(f, fastOpts())
	defer srv.Close()
	coord, _ := Join(f, NodeInfo{ID: "coordinator"}, fastOpts())
	defer coord.Close()
	worker, _ := Join(f, NodeInfo{ID: "worker"}, fastOpts())
	defer worker.Close()

	if err := coord.Signal("worker", "leave"); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, worker, SignalEvent)
	if ev.Signal != "leave" {
		t.Fatalf("signal = %+v", ev)
	}
}

// TestHeartbeatsKeepMemberAlive: a heartbeating member outlives several
// failure timeouts — with its own interval, and with zero Options, where
// the interval is the server's (from the join ack). A client on the
// 200 ms default would be declared dead by this server at ~100 ms.
func TestHeartbeatsKeepMemberAlive(t *testing.T) {
	server := Options{HeartbeatInterval: 20 * time.Millisecond, FailureTimeout: 100 * time.Millisecond}
	for _, tc := range []struct {
		name   string
		tcp    bool
		client Options
	}{
		{"inproc/own-interval", false, fastOpts()},
		{"inproc/servers-interval", false, Options{}},
		{"tcp/servers-interval", true, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var f transport.Fabric
			if tc.tcp {
				hub, err := transport.NewTCPHub("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer hub.Close()
				f = transport.NewTCP(hub.Addr())
			} else {
				inproc := transport.NewInProc(nil)
				defer inproc.Close()
				f = inproc
			}
			srv, err := NewServer(f, server)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			a, err := Join(f, NodeInfo{ID: "a"}, tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			time.Sleep(500 * time.Millisecond) // five failure timeouts
			if got := len(srv.Members()); got != 1 {
				t.Fatalf("heartbeating member was dropped: members = %d", got)
			}
		})
	}
}

func TestRegistryOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	f := transport.NewTCP(hub.Addr())
	srv, err := NewServer(f, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a, err := Join(f, NodeInfo{ID: "a", Cluster: "c0"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Join(f, NodeInfo{ID: "b", Cluster: "c1"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitEvent(t, a, Joined)
	if got := len(srv.Members()); got != 2 {
		t.Fatalf("members over TCP = %d, want 2", got)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		Joined: "joined", Left: "left", Died: "died", SignalEvent: "signal",
		EventKind(9): "EventKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// A join whose fabric is closed under it gives up at its next retry
// instead of waiting out the five-second join deadline: nobody is left
// to acknowledge it.
func TestJoinGivesUpOnClosedFabric(t *testing.T) {
	f := transport.NewInProc(func(string, string) transport.LinkParams {
		return transport.LinkParams{Latency: time.Second}
	})
	if _, err := NewServer(f, fastOpts()); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(10*time.Millisecond, f.Close)
	start := time.Now()
	c, err := Join(f, NodeInfo{ID: "a", Cluster: "c0"}, Options{})
	if err == nil {
		c.Close()
		t.Fatal("join on a closed fabric succeeded")
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want it to wrap transport.ErrClosed", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("join gave up after %v", took)
	}
}
