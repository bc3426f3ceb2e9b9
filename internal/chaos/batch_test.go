package chaos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wirefmt"
)

// chaosBin is the batched path's frame under chaos.
type chaosBin struct{ Seq uint64 }

func (m *chaosBin) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendUvarint(b, m.Seq), nil
}

func (m *chaosBin) DecodeWire(r *wirefmt.Reader) error {
	m.Seq = r.Uvarint()
	return r.Err()
}

func init() { wire.Register[chaosBin]("chaos-bin") }

func batchedPair(t *testing.T, ft *FaultTransport) (*wire.Conn, *wire.Conn) {
	t.Helper()
	epA, err := ft.Endpoint("satin:ca/0")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := ft.Endpoint("satin:cb/0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := wire.BatchConfig{Window: time.Millisecond, MaxFrames: 8}
	return wire.New(epA, wire.WithBatching(cfg)), wire.New(epB, wire.WithBatching(cfg))
}

// A batched link under corruption, duplication and loss must keep the
// unbatched invariants: coalescing actually happens (envelopes, not
// per-frame submissions), every corrupted envelope is a counted
// protocol error, duplicated envelopes never deliver a frame twice
// (the epoch/seq dedup sees the replayed sub-frames), and the session
// resynchronises once the link heals.
func TestChaosBatchedLinkInvariants(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 41)
	defer ft.Close()
	ca, cb := batchedPair(t, ft)
	defer ca.Close()
	defer cb.Close()

	var mu sync.Mutex
	seen := make(map[uint64]int)
	wire.Handle(cb, func(m chaosBin, _ wire.Meta) {
		mu.Lock()
		seen[m.Seq]++
		mu.Unlock()
	})
	wire.Handle(cb, func(chaosPing, wire.Meta) {}) // a second kind shares the envelopes

	baseErr := protoErrTotal()
	baseOut := obs.Default.Total("wire/batches_out/")
	baseIn := obs.Default.Total("wire/batches_in/")

	ft.SetFaults("ca", "cb", Faults{Corrupt: 0.05, Duplicate: 0.2, Drop: 0.05})
	for i := 0; i < 400; i++ {
		wire.Send(ca, "satin:cb/0", chaosBin{Seq: uint64(i)})
		if i%4 == 0 {
			wire.Send(ca, "satin:cb/0", chaosPing{Seq: i})
		}
		if i%50 == 49 {
			// Let window flushes land mid-barrage.
			time.Sleep(5 * time.Millisecond)
		}
	}
	st := ft.Stats()
	if st.Corrupted == 0 || st.Duplicated == 0 || st.Dropped == 0 {
		t.Fatalf("seeded fault plan too tame: %+v", st)
	}
	if d := obs.Default.Total("wire/batches_out/") - baseOut; d == 0 {
		t.Error("no envelopes sent: coalescing silently off")
	}
	if d := obs.Default.Total("wire/batches_in/") - baseIn; d == 0 {
		t.Error("no envelopes received")
	}
	if d := protoErrTotal() - baseErr; d == 0 {
		t.Errorf("%d corrupted envelopes invisible in obs protocol-error counters", st.Corrupted)
	}

	// The link heals; the session must resynchronise and deliver again.
	// Recovery probes use fresh Seq values so the dedup check below
	// stays meaningful.
	ft.ClearFaults()
	deadline := time.Now().Add(5 * time.Second)
	probe := uint64(1 << 32)
	for {
		mu.Lock()
		_, ok := seen[probe-1]
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batched session did not recover after faults cleared")
		}
		wire.Send(ca, "satin:cb/0", chaosBin{Seq: probe})
		probe++
		time.Sleep(10 * time.Millisecond)
	}

	// Dedup invariant: however envelopes were duplicated or replayed
	// around skipped gaps, no frame reached the handler twice.
	mu.Lock()
	defer mu.Unlock()
	for seq, n := range seen {
		if n > 1 {
			t.Fatalf("frame %d delivered %d times through the batched path", seq, n)
		}
	}
}

// A partition under batched traffic swallows whole envelopes. After
// healing, the receiver must notice the gap, skip it (counted) and
// resume deliveries; the dedup invariant holds across the skip.
func TestChaosBatchedPartitionResync(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ft := NewFaultTransport(inner, 7)
	defer ft.Close()
	ca, cb := batchedPair(t, ft)
	defer ca.Close()
	defer cb.Close()

	var mu sync.Mutex
	seen := make(map[uint64]int)
	wire.Handle(cb, func(m chaosBin, _ wire.Meta) {
		mu.Lock()
		seen[m.Seq]++
		mu.Unlock()
	})

	// Healthy traffic first, so the sessions are established.
	for i := 0; i < 20; i++ {
		wire.Send(ca, "satin:cb/0", chaosBin{Seq: uint64(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no deliveries on the healthy link")
		}
		time.Sleep(5 * time.Millisecond)
	}

	baseDesync := obs.Default.Total("wire/desync/")
	ft.Partition("cb")
	for i := 100; i < 150; i++ {
		wire.Send(ca, "satin:cb/0", chaosBin{Seq: uint64(i)})
	}
	time.Sleep(10 * time.Millisecond) // window flushes fire into the void
	if st := ft.Stats(); st.Partitioned == 0 {
		t.Fatalf("partition ate nothing: %+v", st)
	}
	ft.Heal("cb")

	// Post-heal probes: the first arrival exposes the sequence gap,
	// which is counted and skipped on the spot.
	probe := uint64(1 << 32)
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		_, ok := seen[probe-1]
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batched session did not resync after partition healed")
		}
		wire.Send(ca, "satin:cb/0", chaosBin{Seq: probe})
		probe++
		time.Sleep(10 * time.Millisecond)
	}
	if d := obs.Default.Total("wire/desync/") - baseDesync; d == 0 {
		t.Error("recovery happened without a counted gap skip — the partition gap went unnoticed")
	}
	mu.Lock()
	defer mu.Unlock()
	for seq, n := range seen {
		if n > 1 {
			t.Fatalf("frame %d delivered %d times across the partition gap", seq, n)
		}
	}
}
