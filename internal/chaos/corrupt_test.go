package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wirefmt"
)

type chaosPing struct{ Seq int }

func (m *chaosPing) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendVarint(b, int64(m.Seq)), nil
}

func (m *chaosPing) DecodeWire(r *wirefmt.Reader) error {
	m.Seq = int(r.Varint())
	return r.Err()
}

func init() { wire.Register[chaosPing]("chaos-ping") }

// protoErrTotal sums every obs counter a corrupted frame can land in:
// a flipped byte in the body is a decode error, a flipped header byte
// shows up as a stale frame or a skipped gap on the session.
func protoErrTotal() uint64 {
	return obs.Default.Total("wire/decode_err/") +
		obs.Default.Total("wire/desync/") +
		obs.Default.Total("wire/stale/") +
		obs.Default.Total("wire/unknown_kind/")
}

// Corruption and duplication injected by the fault layer must be
// visible in the wire layer's obs counters — a flipped byte is a
// counted protocol error, never a silent drop — and the session must
// recover once the link heals.
func TestChaosCorruptionAccounted(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 23)
	defer ft.Close()

	epA, err := ft.Endpoint("satin:ca/0")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := ft.Endpoint("satin:cb/0")
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := wire.New(epA), wire.New(epB)
	defer ca.Close()
	defer cb.Close()

	var got atomic.Uint64
	wire.Handle(cb, func(chaosPing, wire.Meta) { got.Add(1) })

	baseErr := protoErrTotal()
	baseDup := obs.Default.Total("wire/dup/")

	ft.SetFaults("ca", "cb", Faults{Corrupt: 0.05, Duplicate: 0.2})
	for i := 0; i < 300; i++ {
		wire.Send(ca, "satin:cb/0", chaosPing{Seq: i})
		if i%50 == 49 {
			// Let the fabric deliver mid-barrage: the counters below are
			// read as soon as it ends.
			time.Sleep(5 * time.Millisecond)
		}
	}
	st := ft.Stats()
	if st.Corrupted == 0 {
		t.Fatalf("seeded fault plan corrupted nothing (stats %+v)", st)
	}
	if st.Duplicated == 0 {
		t.Fatalf("seeded fault plan duplicated nothing (stats %+v)", st)
	}

	// Every corruption must be accounted somewhere in the wire counters.
	if d := protoErrTotal() - baseErr; d == 0 {
		t.Errorf("%d corrupted frames invisible in obs protocol-error counters", st.Corrupted)
	}
	if d := obs.Default.Total("wire/dup/") - baseDup; d == 0 {
		t.Errorf("%d duplicated frames invisible in obs wire/dup counters", st.Duplicated)
	}

	// The link heals; the session must resynchronise and deliver again.
	ft.ClearFaults()
	before := got.Load()
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("session did not recover after faults cleared")
		}
		wire.Send(ca, "satin:cb/0", chaosPing{Seq: -1})
		time.Sleep(10 * time.Millisecond)
	}
}

// A flipped byte costs the frame it hit and nothing else, on every
// seed. The receiver moves its cursor on a single frame's (epoch, seq)
// with nobody to ask, so a damaged header must read as a lost frame:
// one that threw the cursor ahead of the sender would silence the pair
// for good. The check above cannot see that (frames still in flight
// satisfy it), so this one waits for the link to fall quiet first.
func TestChaosCorruptionCostsOnlyItsFrame(t *testing.T) {
	const frames = 100
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			inner := transport.NewInProc(nil)
			defer inner.Close()
			ft := NewFaultTransport(inner, seed)
			defer ft.Close()
			epA, _ := ft.Endpoint("satin:ca/0")
			epB, _ := ft.Endpoint("satin:cb/0")
			ca, cb := wire.New(epA), wire.New(epB)
			defer ca.Close()
			defer cb.Close()

			var mu sync.Mutex
			seen := make(map[int]int)
			wire.Handle(cb, func(m chaosPing, _ wire.Meta) {
				mu.Lock()
				seen[m.Seq]++
				mu.Unlock()
			})
			delivered := func() int { mu.Lock(); defer mu.Unlock(); return len(seen) }

			ft.SetFaults("ca", "cb", Faults{Corrupt: 0.05, Duplicate: 0.2})
			for i := 0; i < frames; i++ {
				wire.Send(ca, "satin:cb/0", chaosPing{Seq: i})
			}
			ft.ClearFaults()
			// Quiet means no delivery for 100ms: every copy still in the
			// fabric has landed, and every hole it left been skipped.
			for n, since := delivered(), time.Now(); time.Since(since) < 100*time.Millisecond; {
				time.Sleep(10 * time.Millisecond)
				if d := delivered(); d != n {
					n, since = d, time.Now()
				}
			}
			if lost, hit := frames-delivered(), int(ft.Stats().Corrupted); lost > hit {
				t.Errorf("%d corrupted copies cost %d frames", hit, lost)
			}
			wire.Send(ca, "satin:cb/0", chaosPing{Seq: frames})
			probed := func() bool { mu.Lock(); defer mu.Unlock(); return seen[frames] > 0 }
			for deadline := time.Now().Add(2 * time.Second); !probed(); {
				if time.Now().After(deadline) {
					t.Fatal("first frame on the healed, quiet link was not delivered: cursor stuck ahead of the sender")
				}
				time.Sleep(5 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			for seq, n := range seen {
				if n > 1 {
					t.Fatalf("frame %d delivered %d times", seq, n)
				}
			}
		})
	}
}
