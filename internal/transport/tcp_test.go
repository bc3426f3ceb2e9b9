package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// rawClaim dials the hub without a tcpEP and claims name: a peer that
// speaks the protocol and then does as the test pleases.
func rawClaim(t *testing.T, hub *TCPHub, name string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Write(appendHeader(nil, "", name, claimKind, 0)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	if _, err := readFrame(br, nil); err != nil {
		t.Fatalf("no answer to the claim of %q: %v", name, err)
	}
	return c, br
}

// An endpoint that stops reading must not stall its senders' other
// traffic for longer than the write deadline: the hub hangs up on it,
// which frees its name and which the registry reports as a node failure
// (satin.TestChaosTCPConnectionReset).
func TestTCPSlowReaderIsCutOff(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the write deadline")
	}
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	fab := NewTCP(hub.Addr())
	rawClaim(t, hub, "stuck") // claims, then never reads again
	a := mustEndpoint(t, fab, "a")
	defer a.Close()
	b := mustEndpoint(t, fab, "b")
	defer b.Close()

	const rounds = 1024 // 64 MiB towards stuck: more than the socket buffers of a loopback pair hold
	var mu sync.Mutex
	var last time.Time
	var worst time.Duration
	done := make(chan struct{})
	ticks := 0
	b.SetHandler(func(Message) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if gap := now.Sub(last); !last.IsZero() && gap > worst {
			worst = gap
		}
		last = now
		if ticks++; ticks == rounds {
			close(done)
		}
	})
	bulk := make([]byte, 64<<10)
	for i := 0; i < rounds; i++ {
		if err := a.Send("stuck", "bulk", bulk); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", "tick", nil); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(writeDeadline + 10*time.Second):
		t.Fatal("traffic between the healthy endpoints never resumed")
	}
	if worst > writeDeadline+time.Second {
		t.Errorf("a->b stalled for %v behind the stuck endpoint, want at most the %v write deadline", worst, writeDeadline)
	}
	mustEndpoint(t, fab, "stuck").Close() // the hub hung up on it: the name is free
}

// What the hub does with each frame it reads: one to a name nobody
// holds is dropped and the connection lives on, one to a held name is
// forwarded as sent, and a connection that does not open with a claim,
// or sends under a name it did not claim, is hung up on.
func TestTCPHubRouting(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	victim := mustEndpoint(t, NewTCP(hub.Addr()), "victim")
	defer victim.Close()
	got := make(chan Message, 1)
	victim.SetHandler(func(m Message) { got <- m })

	c, br := rawClaim(t, hub, "peer")
	c.Write(append(appendHeader(nil, "ghost", "peer", "k", 1), 'x'))
	c.Write(append(appendHeader(nil, "victim", "peer", "k", 1), 'y'))
	select {
	case m := <-got:
		if m.From != "peer" || m.To != "victim" || m.Kind != "k" || string(m.Payload) != "y" {
			t.Fatalf("forwarded %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a frame to a missing name cost the sender its connection")
	}

	hungUp := func(c net.Conn, br *bufio.Reader) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := br.ReadByte(); err == nil {
			t.Fatal("the hub answered instead of hanging up")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("the hub kept the connection open")
		}
	}
	c.Write(append(appendHeader(nil, "victim", "alice", "k", 1), 'x')) // peer is not alice
	hungUp(c, br)
	c, err = net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(append(appendHeader(nil, "victim", "nobody", "k", 1), 'x')) // no claim first
	hungUp(c, bufio.NewReader(c))
	select {
	case m := <-got:
		t.Fatalf("the hub forwarded %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// FuzzTCPFrame feeds the envelope reader whatever a socket can carry:
// it errors (never panics), allocates no more than the bound whatever
// length the header claims, and what it accepts re-encodes to a frame
// that parses to the same fields.
func FuzzTCPFrame(f *testing.F) {
	frame := func(to, from, kind string, payload []byte) []byte {
		return append(appendHeader(nil, to, from, kind, len(payload)), payload...)
	}
	f.Add(frame("satin:fs0/03", "satin:fs1/00", "steal-req", []byte{1, 2, 3}))
	f.Add(frame("", "reg:fs0/03", claimKind, nil))
	f.Add(frame("b", "a", "bulk", make([]byte, 64<<10))) // what transport.tcp_mb_s sends
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 'a'})        // oversized length
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(frame("b", "a", "k", []byte("cut"))[:9])             // truncated field
	f.Add([]byte{0, 0, 0, 3, 1, 'b', 9})                       // field length past the frame end
	f.Add([]byte{0, 0, 0, 2, 0x80, 0x80})                      // unterminated varint
	f.Add(append(frame("b", "a", "k", nil), 0, 0, 0, 1, 0xff)) // second frame follows
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if cap(buf) > hdrLen+maxFrame {
			t.Fatalf("allocated %d bytes for one frame, bound %d", cap(buf), hdrLen+maxFrame)
		}
		if err != nil {
			return
		}
		env, err := parseEnvelope(buf[hdrLen:])
		if err != nil {
			return
		}
		again := frame(string(env.to), string(env.from), string(env.kind), env.payload)
		env2, err := parseEnvelope(again[hdrLen:])
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if !bytes.Equal(env.to, env2.to) || !bytes.Equal(env.from, env2.from) ||
			!bytes.Equal(env.kind, env2.kind) || !bytes.Equal(env.payload, env2.payload) {
			t.Fatalf("round trip changed the envelope: %q -> %q", buf, again)
		}
	})
}
