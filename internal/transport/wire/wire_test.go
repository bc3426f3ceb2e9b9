package wire

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// test message types, registered once for the whole package test run.
type pingMsg struct {
	N    int
	Note string
}

func (m *pingMsg) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendString(wirefmt.AppendVarint(b, int64(m.N)), m.Note), nil
}

func (m *pingMsg) DecodeWire(r *wirefmt.Reader) error {
	m.N, m.Note = int(r.Varint()), r.String()
	return r.Err()
}

type pongMsg struct {
	N int
}

func (m *pongMsg) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendVarint(b, int64(m.N)), nil
}

func (m *pongMsg) DecodeWire(r *wirefmt.Reader) error {
	m.N = int(r.Varint())
	return r.Err()
}

func init() {
	Register[pingMsg]("test-ping")
	Register[pongMsg]("test-pong")
}

// interceptFabric lets a test rewrite, duplicate, reorder or corrupt
// frames between wire endpoints.
type interceptFabric struct {
	inner     transport.Fabric
	intercept func(send func(to, kind string, payload []byte) error, to, kind string, payload []byte) error
}

func (f *interceptFabric) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := f.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &interceptEP{f: f, inner: ep}, nil
}

type interceptEP struct {
	f     *interceptFabric
	inner transport.Endpoint
}

func (e *interceptEP) Name() string                   { return e.inner.Name() }
func (e *interceptEP) SetHandler(h transport.Handler) { e.inner.SetHandler(h) }
func (e *interceptEP) Close() error                   { return e.inner.Close() }
func (e *interceptEP) Send(to, kind string, payload []byte) error {
	if e.f.intercept != nil {
		return e.f.intercept(e.inner.Send, to, kind, payload)
	}
	return e.inner.Send(to, kind, payload)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTypedRoundTrip(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)

	var mu sync.Mutex
	var got []pingMsg
	var from string
	Handle(b, func(m pingMsg, meta Meta) {
		mu.Lock()
		got = append(got, m)
		from = meta.From
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		if err := Send(a, "b", pingMsg{N: i, Note: "hello"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "10 messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 10
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.N != i || m.Note != "hello" {
			t.Fatalf("message %d = %+v (order or content wrong)", i, m)
		}
	}
	if from != "a" {
		t.Fatalf("meta.From = %q, want a", from)
	}
}

// Transport-level duplicates are discarded by sequence number and
// accounted for.
func TestDuplicateFrameDiscardedAndCounted(t *testing.T) {
	var mu sync.Mutex
	dupAll := false
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		d := dupAll && kind == "test-ping"
		mu.Unlock()
		err := send(to, kind, p)
		if d {
			send(to, kind, p)
		}
		return err
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	var recv []int
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	dupBefore := obs.Default.Total("wire/dup/")
	mu.Lock()
	dupAll = true
	mu.Unlock()
	for i := 0; i < 5; i++ {
		if err := Send(a, "b", pingMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "5 deliveries and dup accounting", func() bool {
		mu.Lock()
		n := len(recv)
		mu.Unlock()
		return n == 5 && obs.Default.Total("wire/dup/") >= dupBefore+5
	})
	time.Sleep(20 * time.Millisecond) // a late duplicate must not slip in
	mu.Lock()
	defer mu.Unlock()
	if len(recv) != 5 {
		t.Fatalf("duplicates delivered: got %v", recv)
	}
	for i, n := range recv {
		if n != i {
			t.Fatalf("order broken: %v", recv)
		}
	}
}

// The fabric keeps a pair's order, so a frame overtaken by its
// successor was lost, not delayed: seq 2 is delivered the moment it
// arrives, and seq 1, turning up after it, is refused as a duplicate.
func TestOvertakenFrameIsLost(t *testing.T) {
	var mu sync.Mutex
	var held func()
	holdOne := false
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if holdOne && kind == "test-ping" {
			holdOne = false
			held = func() { send(to, kind, p) }
			return nil
		}
		return send(to, kind, p)
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	var recv []int
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	received := func(n int) func() bool {
		return func() bool { mu.Lock(); defer mu.Unlock(); return len(recv) == n }
	}
	Send(a, "b", pingMsg{N: 0})
	waitFor(t, "first", received(1))
	mu.Lock()
	holdOne = true
	mu.Unlock()
	Send(a, "b", pingMsg{N: 1}) // held back
	Send(a, "b", pingMsg{N: 2}) // overtakes it
	waitFor(t, "the overtaking frame", received(2))
	dup := obs.Default.Counter("wire/dup/test-ping")
	dupBefore := dup.Value()
	mu.Lock()
	release := held
	mu.Unlock()
	release()
	waitFor(t, "the overtaken frame refused", func() bool { return dup.Value() == dupBefore+1 })
	mu.Lock()
	defer mu.Unlock()
	if len(recv) != 2 || recv[0] != 0 || recv[1] != 2 {
		t.Fatalf("delivered %v, want [0 2]", recv)
	}
}

// A frame genuinely lost mid-stream costs exactly that frame: the frame
// after the hole is delivered on arrival, the hole is counted once in
// wire/desync, and the stream simply continues.
func TestLostFrameCostsOnlyThatFrame(t *testing.T) {
	var mu sync.Mutex
	dropNext := false
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	f.intercept = func(send func(string, string, []byte) error, to, kind string, p []byte) error {
		mu.Lock()
		d := dropNext && kind == "test-ping"
		if d {
			dropNext = false
		}
		mu.Unlock()
		if d {
			return nil
		}
		return send(to, kind, p)
	}
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	var recv []int
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	received := func(n int) func() bool {
		return func() bool { mu.Lock(); defer mu.Unlock(); return len(recv) == n }
	}
	Send(a, "b", pingMsg{N: 0})
	waitFor(t, "first", received(1))
	desync := obs.Default.Counter("wire/desync/" + pairLabel("a", "b"))
	desyncBefore, staleBefore := desync.Value(), obs.Default.Total("wire/stale/")
	mu.Lock()
	dropNext = true
	mu.Unlock()
	Send(a, "b", pingMsg{N: 1}) // eaten
	Send(a, "b", pingMsg{N: 2}) // arrives behind the hole
	waitFor(t, "frame behind the hole", received(2))
	Send(a, "b", pingMsg{N: 3})
	waitFor(t, "frame after it", received(3))
	mu.Lock()
	defer mu.Unlock()
	if recv[0] != 0 || recv[1] != 2 || recv[2] != 3 {
		t.Fatalf("delivered %v, want [0 2 3]", recv)
	}
	if d := desync.Value() - desyncBefore; d != 1 {
		t.Fatalf("one lost frame counted %d times in wire/desync", d)
	}
	if obs.Default.Total("wire/stale/") != staleBefore {
		t.Fatal("the frame behind the hole was thrown away as stale")
	}
}

// A receiver that restarts mid-stream (a rejoined endpoint) delivers the
// sender's very next Send on arrival, with no further send and nothing
// for the sender to do, and counts the gap it joined at as a pickup.
func TestFreshReceiverResyncs(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	epA, _ := inner.Endpoint("a")
	a := New(epA)

	epB1, _ := inner.Endpoint("b")
	b1 := New(epB1)
	got1 := make(chan pingMsg, 2)
	Handle(b1, func(m pingMsg, _ Meta) { got1 <- m })
	Send(a, "b", pingMsg{N: 0})
	Send(a, "b", pingMsg{N: 1})
	for i := 0; i < 2; i++ {
		select {
		case <-got1:
		case <-time.After(5 * time.Second):
			t.Fatal("first endpoint never got its messages")
		}
	}
	b1.Close() // endpoint restarts under the same name
	epB2, _ := inner.Endpoint("b")
	b2 := New(epB2)
	got2 := make(chan pingMsg, 1)
	Handle(b2, func(m pingMsg, _ Meta) { got2 <- m })
	desync := obs.Default.Counter("wire/desync/" + pairLabel("a", "b"))
	pickup := obs.Default.Counter("wire/pickup/" + pairLabel("a", "b"))
	desyncBefore, pickupBefore := desync.Value(), pickup.Value()
	start := time.Now()
	if err := Send(a, "b", pingMsg{N: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got2:
		if m.N != 9 {
			t.Fatalf("restarted receiver got %+v, want N=9", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first frame after the receiver restarted was never delivered")
	}
	d := time.Since(start)
	t.Logf("restarted receiver got its first frame after %v", d)
	if d > 10*time.Millisecond {
		t.Fatal("want it within 10ms")
	}
	if d := pickup.Value() - pickupBefore; d != 1 {
		t.Fatalf("picking up a mid-stream sender counted %d times in wire/pickup, want 1", d)
	}
	if desync.Value() != desyncBefore {
		t.Fatal("a fault-free rejoin was reported as lost frames in wire/desync")
	}
}

// A sender that restarts under its old name (a node released and
// provisioned again) is a new incarnation, not a replay: its session
// starts at seq 0 again, and the peer that still holds the old
// incarnation's cursor must not discard its first frames as duplicates.
func TestRestartedSenderIsNotADuplicate(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	epB, _ := inner.Endpoint("b")
	b := New(epB)
	var mu sync.Mutex
	var recv []int
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		recv = append(recv, m.N)
		mu.Unlock()
	})
	received := func(n int) func() bool {
		return func() bool { mu.Lock(); defer mu.Unlock(); return len(recv) == n }
	}

	epA1, _ := inner.Endpoint("a")
	a1 := New(epA1)
	for i := 0; i < 5; i++ {
		if err := Send(a1, "b", pingMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "first incarnation's frames", received(5))
	a1.Close()

	dupBefore := obs.Default.Total("wire/dup/")
	epA2, err := inner.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(epA2)
	for i := 100; i < 110; i++ {
		if err := Send(a2, "b", pingMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "second incarnation's frames", received(15))
	mu.Lock()
	defer mu.Unlock()
	for i, n := range recv[5:] {
		if n != 100+i {
			t.Fatalf("second incarnation delivered %v, want 100..109 in order", recv[5:])
		}
	}
	if d := obs.Default.Total("wire/dup/") - dupBefore; d != 0 {
		t.Fatalf("%d frames of the new incarnation discarded as duplicates", d)
	}
}

// unregisteredMsg has a codec but no Register call.
type unregisteredMsg struct{ pongMsg }

func TestSendUnregisteredTypeFails(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	ep, _ := f.Endpoint("solo")
	c := New(ep)
	if err := Send(c, "solo", unregisteredMsg{}); err == nil {
		t.Fatal("sending an unregistered type must fail")
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting Register must panic")
		}
	}()
	Register[pongMsg]("test-ping") // "test-ping" belongs to pingMsg
}

// fussyMsg refuses to encode on demand.
type fussyMsg struct {
	N    int
	Fail bool
}

func (m *fussyMsg) AppendWire(b []byte) ([]byte, error) {
	if m.Fail {
		return nil, errors.New("refusing to encode")
	}
	return wirefmt.AppendVarint(b, int64(m.N)), nil
}

func (m *fussyMsg) DecodeWire(r *wirefmt.Reader) error {
	m.N = int(r.Varint())
	return r.Err()
}

func init() { Register[fussyMsg]("test-fussy") }

// An encode failure is the caller's problem alone: it is returned and
// counted, and because frames are self-contained nothing half-written
// reached the session — same epoch, next frame delivered.
func TestEncodeErrorLeavesSessionIntact(t *testing.T) {
	f := transport.NewInProc(nil)
	defer f.Close()
	epA, _ := f.Endpoint("a")
	epB, _ := f.Endpoint("b")
	a, b := New(epA), New(epB)
	got := make(chan fussyMsg, 2)
	Handle(b, func(m fussyMsg, _ Meta) { got <- m })

	if err := Send(a, "b", fussyMsg{N: 7}); err != nil {
		t.Fatal(err)
	}
	<-got
	epoch := a.sendSession("b").epoch
	errs := obs.Default.Counter("wire/encode_err/test-fussy")
	errsBefore := errs.Value()
	if err := Send(a, "b", fussyMsg{Fail: true}); err == nil {
		t.Fatal("a failing AppendWire must fail the Send")
	}
	if d := errs.Value() - errsBefore; d != 1 {
		t.Fatalf("encode error counted %d times", d)
	}
	if err := Send(a, "b", fussyMsg{N: 8}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.N != 8 {
			t.Fatalf("got %+v after encode error, want N=8", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message after encode error never arrived")
	}
	if got := a.sendSession("b").epoch; got != epoch {
		t.Fatalf("encode error restarted the session: epoch %d -> %d", epoch, got)
	}
}

// A send that fails at dispatch (destination endpoint not yet up)
// burns a sequence number the receiver will never see. The session
// must restart so the next successful Send starts a stream — not open
// a gap the receiver counts as lost frames.
func TestFailedSendRestartsSession(t *testing.T) {
	inner := transport.NewInProc(nil)
	defer inner.Close()
	f := &interceptFabric{inner: inner}
	epA, _ := f.Endpoint("a")
	a := New(epA)

	// "b" does not exist yet: every send must fail visibly. The stream
	// has nothing in flight, so it restarts in its own epoch: retrying
	// against a dead peer must not run the epoch source ahead of the
	// clock, or this process, restarted, is stale to its peers.
	for i := 0; i < 100; i++ {
		if err := Send(a, "b", pingMsg{N: i}); err == nil {
			t.Fatal("send to a missing endpoint reported success")
		}
	}
	if e := a.sendSession("b").epoch; e != lastEpoch.Load() {
		t.Fatalf("100 refused sends spent %d epochs", lastEpoch.Load()-e)
	}

	epB, _ := f.Endpoint("b")
	b := New(epB)
	var mu sync.Mutex
	var got []pingMsg
	Handle(b, func(m pingMsg, _ Meta) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})

	// The first send after the outage must be delivered.
	if err := Send(a, "b", pingMsg{N: 42, Note: "post-outage"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-outage message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	if got[0].N != 42 || got[0].Note != "post-outage" {
		t.Fatalf("delivered %+v, want the post-outage frame", got[0])
	}
	mu.Unlock()

	// The same for a peer that by now holds a cursor: a refused dispatch
	// spends a seq, and the restart keeps it from reading as a lost frame.
	desyncBefore := obs.Default.Total("wire/desync/")
	f.intercept = func(func(string, string, []byte) error, string, string, []byte) error {
		return errors.New("fabric refused")
	}
	if err := Send(a, "b", pingMsg{N: 43}); err == nil {
		t.Fatal("refused dispatch reported success")
	}
	f.intercept = nil
	if err := Send(a, "b", pingMsg{N: 44}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame after the refused dispatch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2 && got[1].N == 44
	})
	if obs.Default.Total("wire/desync/") != desyncBefore {
		t.Fatal("frame after a refused dispatch was counted as a gap: the session did not restart")
	}
}
