package wire

import (
	"encoding/hex"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// binEchoMsg is the package's multi-field codec guinea pig.
type binEchoMsg struct {
	ID   string
	N    int64
	Good bool
}

func (m *binEchoMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, m.ID)
	b = wirefmt.AppendVarint(b, m.N)
	b = wirefmt.AppendBool(b, m.Good)
	return b, nil
}

func (m *binEchoMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = r.String()
	m.N = r.Varint()
	m.Good = r.Bool()
	return r.Err()
}

func init() { Register[binEchoMsg]("test-bin") }

func TestBinaryRoundTrip(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)

	var mu sync.Mutex
	var got []binEchoMsg
	var meta Meta
	Handle(b, func(m binEchoMsg, mt Meta) {
		mu.Lock()
		got = append(got, m)
		meta = mt
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		if err := Send(a, "b", binEchoMsg{ID: "wörker ✓", N: int64(-i), Good: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "10 binary messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 10
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.N != int64(-i) || m.ID != "wörker ✓" || m.Good != (i%2 == 0) {
			t.Fatalf("message %d = %+v (order or content wrong)", i, m)
		}
	}
	if meta.From != "a" || meta.Bytes == 0 {
		t.Fatalf("meta = %+v", meta)
	}
}

// A malformed frame is self-contained: it must be counted and skipped
// without disturbing the session — no desync, and the very next frame
// flows.
func TestBinaryCorruptFrameSkippedNotPoisoned(t *testing.T) {
	var mu sync.Mutex
	truncateNext := false
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		doIt := truncateNext && kind == "test-bin"
		if doIt {
			truncateNext = false
		}
		mu.Unlock()
		if doIt {
			return send(to, kind, p[:headerLen+1]) // header intact, body gutted
		}
		return send(to, kind, p)
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	var recv []int64
	Handle(b, func(m binEchoMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})

	errBefore := obs.Default.Total("wire/decode_err/")
	desyncBefore := obs.Default.Total("wire/desync/")
	Send(a, "b", binEchoMsg{N: 0, ID: "x"})
	waitFor(t, "first", func() bool { mu.Lock(); defer mu.Unlock(); return len(recv) == 1 })
	mu.Lock()
	truncateNext = true
	mu.Unlock()
	Send(a, "b", binEchoMsg{N: 1, ID: "x"}) // mangled in flight
	Send(a, "b", binEchoMsg{N: 2, ID: "x"}) // must be delivered, not counted as a gap
	waitFor(t, "frame after corruption", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recv) == 2 && recv[1] == 2
	})
	if got := obs.Default.Total("wire/decode_err/"); got <= errBefore {
		t.Fatal("corrupted binary frame not counted as decode error")
	}
	if got := obs.Default.Total("wire/desync/"); got != desyncBefore {
		t.Fatal("binary decode error poisoned the session; it must only skip the frame")
	}
}

func init() { Register[metrics.Report]("test-report") }

// A statistics report no node could have measured (here a NaN busy
// time) never reaches the coordinator's handler: its decoder fails the
// frame, the wire counts it under wire/decode_err, and the next report
// flows.
func TestNaNReportCountedNotDelivered(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	var mu sync.Mutex
	var got []metrics.Report
	Handle(b, func(rep metrics.Report, _ Meta) {
		mu.Lock()
		got = append(got, rep)
		mu.Unlock()
	})
	errBefore := obs.Default.Counter("wire/decode_err/test-report").Value()
	Send(a, "b", metrics.Report{Node: "bad", End: 1, BusySec: math.NaN()})
	Send(a, "b", metrics.Report{Node: "good", End: 1, BusySec: 0.5})
	waitFor(t, "the good report", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) > 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Node != "good" {
		t.Fatalf("delivered %+v, want only the good report", got)
	}
	if n := obs.Default.Counter("wire/decode_err/test-report").Value() - errBefore; n != 1 {
		t.Fatalf("wire/decode_err/test-report rose by %d, want 1", n)
	}
}

// With coalescing enabled, N logical frames ride fewer fabric
// submissions, and delivery preserves order and content exactly.
func TestBatchCoalescesAndDeliversInOrder(t *testing.T) {
	var mu sync.Mutex
	var envelopes, plain int
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		if kind == ctrlBatch {
			envelopes++
		} else if kind == "test-bin" || kind == "test-ping" {
			plain++
		}
		mu.Unlock()
		return send(to, kind, p)
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a := New(epA, WithBatching(BatchConfig{Window: time.Hour, MaxFrames: 4}))
	b := New(epB)
	var recv []int64
	Handle(b, func(m binEchoMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, int64(m.N))
		mu.Unlock()
	})
	// Interleave two kinds: the batch must preserve FIFO across kinds
	// (they share one seq space per pair).
	for i := 0; i < 8; i++ {
		var err error
		if i%2 == 0 {
			err = Send(a, "b", binEchoMsg{N: int64(i)})
		} else {
			err = Send(a, "b", pingMsg{N: i})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "8 batched deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recv) == 8
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range recv {
		if n != int64(i) {
			t.Fatalf("batched delivery order broken: %v", recv)
		}
	}
	if envelopes != 2 {
		t.Fatalf("8 frames @ MaxFrames=4 rode %d envelopes, want 2", envelopes)
	}
	if plain != 0 {
		t.Fatalf("%d frames bypassed the batch", plain)
	}
}

// The window timer flushes a partial batch; nothing waits forever.
func TestBatchWindowFlushes(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	epA, _ := inner.Endpoint("a")
	epB, _ := inner.Endpoint("b")
	a := New(epA, WithBatching(BatchConfig{Window: 2 * time.Millisecond, MaxFrames: 1000}))
	b := New(epB)
	got := make(chan binEchoMsg, 4)
	Handle(b, func(m binEchoMsg, _ Meta) { got <- m })
	Send(a, "b", binEchoMsg{N: 42})
	select {
	case m := <-got:
		if m.N != 42 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window flush never happened")
	}
}

// Close flushes the pending batch: frames accepted before Close are
// not silently dropped.
func TestCloseFlushesBatch(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	epA, _ := inner.Endpoint("a")
	epB, _ := inner.Endpoint("b")
	a := New(epA, WithBatching(BatchConfig{Window: time.Hour, MaxFrames: 1000}))
	b := New(epB)
	var mu sync.Mutex
	var recv []int64
	Handle(b, func(m binEchoMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		Send(a, "b", binEchoMsg{N: int64(i)})
	}
	a.Close()
	waitFor(t, "flush on close", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recv) == 3
	})
}

// A corrupted envelope is a counted protocol error, its frames become
// a sequence gap, and the next frame to arrive restores the flow — the
// batching layer adds no new failure mode.
func TestBatchEnvelopeCorruptionRecovers(t *testing.T) {
	var mu sync.Mutex
	corruptNext := false
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		doIt := corruptNext && kind == ctrlBatch
		if doIt {
			corruptNext = false
		}
		mu.Unlock()
		if doIt {
			return send(to, kind, p[:1]) // the count survives, the records do not
		}
		return send(to, kind, p)
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a := New(epA, WithBatching(BatchConfig{Window: time.Millisecond, MaxFrames: 2}))
	b := New(epB)
	var recv []int64
	Handle(b, func(m binEchoMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})

	errBefore := obs.Default.Total("wire/decode_err/")
	Send(a, "b", binEchoMsg{N: 0})
	Send(a, "b", binEchoMsg{N: 1})
	waitFor(t, "first envelope", func() bool { mu.Lock(); defer mu.Unlock(); return len(recv) == 2 })
	mu.Lock()
	corruptNext = true
	mu.Unlock()
	Send(a, "b", binEchoMsg{N: 2}) // this envelope is mangled in flight
	Send(a, "b", binEchoMsg{N: 3})
	waitFor(t, "envelope decode error counted", func() bool {
		return obs.Default.Total("wire/decode_err/") > errBefore
	})
	waitFor(t, "recovery after envelope corruption", func() bool {
		Send(a, "b", binEchoMsg{N: 99})
		mu.Lock()
		defer mu.Unlock()
		return len(recv) > 2 && recv[len(recv)-1] == 99
	})
}

// FuzzBatchEnvelope throws arbitrary bytes at the envelope parser
// through the full delivery path: it must never panic or over-read,
// only deliver intact prefixes and count the rest.
func FuzzBatchEnvelope(f *testing.F) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	ep, _ := inner.Endpoint("fuzz-batch")
	c := New(ep)
	Handle(c, func(m binEchoMsg, _ Meta) {})

	// Seed: a well-formed two-frame envelope.
	frame := func(seq uint64, id string) []byte {
		p, _ := (&binEchoMsg{ID: id, N: 7}).AppendWire(make([]byte, headerLen))
		putHeader(p, 0, seq)
		return p
	}
	var env []byte
	env = wirefmt.AppendUvarint(env, 2)
	env = wirefmt.AppendString(env, "test-bin")
	env = wirefmt.AppendBytes(env, frame(0, "a"))
	env = wirefmt.AppendString(env, "test-bin")
	env = wirefmt.AppendBytes(env, frame(1, "b"))
	f.Add(env)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(wirefmt.AppendString(wirefmt.AppendUvarint(nil, 1), ctrlBatch))

	f.Fuzz(func(t *testing.T, data []byte) {
		c.handleBatch(transport.Message{From: "peer", Kind: ctrlBatch, Payload: data})
	})
}

// FuzzBinaryFrameDecode drives the registered binary handler path over
// arbitrary frame bodies: malformed bodies must error cleanly through
// the skip-and-count path, never panic.
func FuzzBinaryFrameDecode(f *testing.F) {
	good, _ := (&binEchoMsg{ID: "héllo", N: -5, Good: true}).AppendWire(nil)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'b'})
	// The registry's join-ack as registry.TestWireGolden pins it (a
	// varint interval, then a counted member list), and the same frame
	// with the interval's sign bit set.
	joinAck, _ := hex.DecodeString("80b4891302066673302f303003667330066673312f303103667331")
	f.Add(joinAck)
	f.Add(append([]byte{0x01}, joinAck[4:]...))
	// The satin runtime's wake frame as it crosses a link: the header
	// and an empty body.
	wake := make([]byte, headerLen)
	putHeader(wake, 7, 3)
	f.Add(wake)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m binEchoMsg
		r := wirefmt.NewReader(data)
		if err := m.DecodeWire(&r); err == nil {
			_ = r.Finish()
		}
		if r.Remaining() < 0 {
			t.Fatal("over-read")
		}
	})
}

// The wire round trip alloc ceiling (ISSUE 7): sending a binary
// control frame must stay allocation-lean. The ceiling is generous —
// it guards against regressions back to per-frame codec construction
// (which costs dozens), not against single-alloc noise.
func TestBinarySendAllocCeiling(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	epA, _ := inner.Endpoint("a")
	epB, _ := inner.Endpoint("b")
	a, b := New(epA), New(epB)
	var n uint64
	var mu sync.Mutex
	Handle(b, func(m binEchoMsg, _ Meta) { mu.Lock(); n++; mu.Unlock() })
	msg := binEchoMsg{ID: "node/03", N: 12345, Good: true}
	Send(a, "b", msg) // warm the session and counters
	allocs := testing.AllocsPerRun(200, func() {
		if err := Send(a, "b", msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("binary Send allocates %.1f/op, ceiling 8", allocs)
	}
	waitFor(t, "deliveries drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return n >= 200
	})
}
