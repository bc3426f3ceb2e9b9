package transport

import (
	"encoding/binary"
	"testing"
	"time"
)

// fabricUnderTest is one Fabric and the harshest way it can lose an
// endpoint without the endpoint's cooperation.
type fabricUnderTest struct {
	name string
	open func(t *testing.T) (f Fabric, drop func(Endpoint))
}

var fabrics = []fabricUnderTest{
	{"InProc", func(t *testing.T) (Fabric, func(Endpoint)) {
		f := NewInProc(nil)
		t.Cleanup(f.Close)
		return f, func(ep Endpoint) { ep.Close() }
	}},
	{"TCP", func(t *testing.T) (Fabric, func(Endpoint)) {
		hub, err := NewTCPHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hub.Close() })
		return NewTCP(hub.Addr()), func(ep Endpoint) {
			if !hub.DropEndpoint(ep.Name()) {
				t.Errorf("DropEndpoint(%q) = false for a connected endpoint", ep.Name())
			}
		}
	}},
}

func mustEndpoint(t *testing.T, f Fabric, name string) Endpoint {
	t.Helper()
	ep, err := f.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestFabricConformance is the Fabric contract, run over every fabric:
// what wire, registry, adapt's failover and job.Serve/Dial rely on
// without knowing which one they were handed.
func TestFabricConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, f Fabric, drop func(Endpoint))
	}{
		{"duplicate name refused", func(t *testing.T, f Fabric, _ func(Endpoint)) {
			defer mustEndpoint(t, f, "x").Close()
			if ep, err := f.Endpoint("x"); err == nil {
				ep.Close()
				t.Fatal("second claim of a taken name succeeded")
			}
		}},
		{"routable when Endpoint returns", func(t *testing.T, f Fabric, _ func(Endpoint)) {
			a := mustEndpoint(t, f, "a")
			defer a.Close()
			got := make(chan Message, 1)
			a.SetHandler(func(m Message) { got <- m })
			b := mustEndpoint(t, f, "b")
			defer b.Close()
			if err := b.Send("a", "hello", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-got:
				if m.From != "b" || m.To != "a" || m.Kind != "hello" || string(m.Payload) != "payload" {
					t.Fatalf("message = %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the one frame sent never arrived")
			}
		}},
		{"per-pair FIFO", func(t *testing.T, f Fabric, _ func(Endpoint)) {
			const frames = 2000
			a := mustEndpoint(t, f, "a")
			defer a.Close()
			b := mustEndpoint(t, f, "b")
			defer b.Close()
			got := make(chan uint64, frames)
			b.SetHandler(func(m Message) { got <- binary.LittleEndian.Uint64(m.Payload) })
			for i := uint64(0); i < frames; i++ {
				if err := a.Send("b", "seq", binary.LittleEndian.AppendUint64(nil, i)); err != nil {
					t.Fatal(err)
				}
			}
			for want := uint64(0); want < frames; want++ {
				select {
				case seq := <-got:
					if seq != want {
						t.Fatalf("frame %d arrived where %d was due", seq, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("frame %d never arrived", want)
				}
			}
		}},
		{"send after Close fails", func(t *testing.T, f Fabric, _ func(Endpoint)) {
			a := mustEndpoint(t, f, "a")
			defer mustEndpoint(t, f, "b").Close()
			a.Close()
			if err := a.Send("b", "k", nil); err == nil {
				t.Fatal("send from a closed endpoint succeeded")
			}
		}},
		{"name free when Close returns", func(t *testing.T, f Fabric, _ func(Endpoint)) {
			for i := 0; i < 500; i++ {
				ep, err := f.Endpoint("phoenix")
				if err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
				ep.Close()
			}
		}},
		{"dropped endpoint frees the name", func(t *testing.T, f Fabric, drop func(Endpoint)) {
			drop(mustEndpoint(t, f, "victim"))
			mustEndpoint(t, f, "victim").Close()
		}},
	}
	for _, fut := range fabrics {
		for _, row := range rows {
			t.Run(fut.name+"/"+row.name, func(t *testing.T) {
				f, drop := fut.open(t)
				row.run(t, f, drop)
			})
		}
	}
}
