package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wirefmt"
)

// A socket frame is a 4-byte big-endian length and that many bytes of
// body: the wirefmt strings to, from and kind, then the payload to the
// end of the body. The hub routes on the names and forwards header and
// body as it read them.
const (
	hdrLen = 4
	// maxFrame bounds a frame's body, and with it what one connection
	// can make its reader allocate. The runtime's large frames are steal
	// replies carrying one task: 18 KiB for the Barnes-Hut jobs of the
	// test suite, 104 KiB in examples/barneshut; a wire batch flushes at
	// 32 KiB and the benchmark's bulk frames are 64 KiB.
	maxFrame = 4 << 20
	// writeDeadline is how long the hub lets one write to one endpoint
	// take (and an endpoint lets the claim handshake and the goodbye
	// take). An endpoint that stops reading stalls the senders routed to
	// it for at most this long; then the hub hangs up on it.
	writeDeadline = 2 * time.Second
	// claimKind marks the claim frame (first on every connection, to "")
	// and the hub's answer (from ""): an empty payload grants the name,
	// anything else is the refusal.
	claimKind = "\x00claim"
)

// envelope is a parsed frame body; the fields alias it.
type envelope struct {
	to, from, kind, payload []byte
}

func parseEnvelope(body []byte) (envelope, error) {
	r := wirefmt.NewReader(body)
	var env envelope
	env.to = r.View(r.Len())
	env.from = r.View(r.Len())
	env.kind = r.View(r.Len())
	env.payload = r.View(r.Remaining())
	return env, r.Err()
}

// appendHeader appends the header and the three names of a frame whose
// payload, payloadLen bytes, the caller writes after them.
func appendHeader(b []byte, to, from, kind string, payloadLen int) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = wirefmt.AppendString(b, to)
	b = wirefmt.AppendString(b, from)
	b = wirefmt.AppendString(b, kind)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-hdrLen+payloadLen))
	return b
}

// readFrame reads one frame, header included, into buf (replaced when
// too small). It refuses a length beyond maxFrame before allocating.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(hdrLen)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	size := hdrLen + int(n)
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	_, err = io.ReadFull(br, buf)
	return buf, err
}

// TCPHub routes frames between endpoints connected over real sockets,
// in the style of the Ibis registry/hub deployment: every endpoint
// dials the hub, claims its name, and frames are forwarded by name.
// A hub keeps the fabric NAT- and discovery-free, which is exactly why
// the grid middleware the paper builds on used one.
type TCPHub struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[string]*hubConn
	done  bool
}

type hubConn struct {
	c   net.Conn
	wmu sync.Mutex // serialises writes
}

// write hands one whole frame to the endpoint, or hangs up on it: a
// write cut short by the deadline leaves half a frame in the stream.
// The endpoint's serve loop then fails its read and releases the name.
func (hc *hubConn) write(frame []byte) {
	hc.wmu.Lock()
	hc.c.SetWriteDeadline(time.Now().Add(writeDeadline))
	_, err := hc.c.Write(frame)
	hc.wmu.Unlock()
	if err != nil {
		hc.c.Close()
	}
}

// NewTCPHub starts a hub on addr ("127.0.0.1:0" for an ephemeral port).
func NewTCPHub(addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &TCPHub{ln: ln, conns: make(map[string]*hubConn)}
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address for clients to dial.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Close stops the hub and disconnects everyone.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	h.done = true
	for _, hc := range h.conns {
		hc.c.Close()
	}
	h.conns = map[string]*hubConn{}
	h.mu.Unlock()
	return h.ln.Close()
}

// DropEndpoint abruptly severs the named endpoint's hub connection —
// a connection reset mid-message, not a goodbye — and frees the name.
// The victim's socket is closed with linger disabled so in-flight bytes
// are discarded, the way a crashed process or a stateful firewall kills
// a long-lived grid connection. Returns whether the endpoint was
// connected.
func (h *TCPHub) DropEndpoint(name string) bool {
	h.mu.Lock()
	hc := h.conns[name]
	delete(h.conns, name)
	h.mu.Unlock()
	if hc == nil {
		return false
	}
	if tc, ok := hc.c.(*net.TCPConn); ok {
		tc.SetLinger(0) // RST instead of FIN
	}
	hc.c.Close()
	return true
}

func (h *TCPHub) acceptLoop() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		go h.serve(c)
	}
}

// claim registers hc under name unless the name is taken, and answers
// the claimant. The write lock is held across both so that no frame
// routed to the new name can reach the socket before the answer does.
func (h *TCPHub) claim(name string, hc *hubConn) bool {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	refusal := ""
	h.mu.Lock()
	switch {
	case h.done:
		refusal = "hub closed"
	case name == "":
		refusal = "empty endpoint name"
	case h.conns[name] != nil:
		refusal = fmt.Sprintf("endpoint %q already attached", name)
	default:
		h.conns[name] = hc
	}
	h.mu.Unlock()
	answer := appendHeader(nil, name, "", claimKind, len(refusal))
	hc.c.SetWriteDeadline(time.Now().Add(writeDeadline))
	_, err := hc.c.Write(append(answer, refusal...))
	return refusal == "" && err == nil
}

func (h *TCPHub) release(name string, hc *hubConn) {
	h.mu.Lock()
	if h.conns[name] == hc {
		delete(h.conns, name)
	}
	h.mu.Unlock()
}

func (h *TCPHub) serve(c net.Conn) {
	defer c.Close() // after the release below: a hang-up tells the endpoint its name is free
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(writeDeadline))
	buf, err := readFrame(br, nil)
	if err != nil {
		return
	}
	env, err := parseEnvelope(buf[hdrLen:])
	if err != nil || string(env.kind) != claimKind || len(env.to) != 0 {
		return
	}
	name := string(env.from)
	hc := &hubConn{c: c}
	defer h.release(name, hc)
	if !h.claim(name, hc) {
		return
	}
	c.SetReadDeadline(time.Time{})
	for {
		if buf, err = readFrame(br, buf); err != nil {
			return
		}
		env, err := parseEnvelope(buf[hdrLen:])
		if err != nil || string(env.from) != name {
			return // malformed, or sent under somebody else's name
		}
		h.mu.Lock()
		dst := h.conns[string(env.to)]
		h.mu.Unlock()
		if dst != nil { // else the destination is gone: frames are best-effort
			dst.write(buf)
		}
	}
}

// TCP is the Fabric whose endpoints dial a hub.
type TCP struct {
	addr string
}

// NewTCP returns a fabric for the hub at addr.
func NewTCP(addr string) *TCP { return &TCP{addr: addr} }

// Endpoint implements Fabric: it dials the hub and claims name. When it
// returns the hub routes to the name; a taken name is an error.
func (t *TCP) Endpoint(name string) (Endpoint, error) {
	c, err := net.Dial("tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing hub: %w", err)
	}
	ep := &tcpEP{name: name, c: c.(*net.TCPConn), br: bufio.NewReader(c), done: make(chan struct{})}
	if err := ep.claim(); err != nil {
		c.Close()
		return nil, err
	}
	go ep.readLoop()
	return ep, nil
}

type tcpEP struct {
	name string
	c    *net.TCPConn
	br   *bufio.Reader
	done chan struct{} // closed when readLoop has returned

	wmu sync.Mutex // serialises writes; guards hdr
	hdr []byte

	mu sync.Mutex
	h  Handler

	closed atomic.Bool
}

func (e *tcpEP) Name() string { return e.name }

func (e *tcpEP) claim() error {
	e.c.SetDeadline(time.Now().Add(writeDeadline))
	if _, err := e.c.Write(appendHeader(nil, "", e.name, claimKind, 0)); err != nil {
		return fmt.Errorf("transport: claiming %q: %w", e.name, err)
	}
	buf, err := readFrame(e.br, nil)
	if err != nil {
		return fmt.Errorf("transport: claiming %q: %w", e.name, err)
	}
	env, err := parseEnvelope(buf[hdrLen:])
	if err != nil || string(env.kind) != claimKind {
		return fmt.Errorf("transport: claiming %q: not a hub at %s", e.name, e.c.RemoteAddr())
	}
	if len(env.payload) > 0 {
		return fmt.Errorf("transport: %s", env.payload)
	}
	return e.c.SetDeadline(time.Time{})
}

func (e *tcpEP) Send(to, kind string, payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.hdr = appendHeader(e.hdr[:0], to, e.name, kind, len(payload))
	if n := len(e.hdr) - hdrLen + len(payload); n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	bufs := net.Buffers{e.hdr, payload}
	_, err := bufs.WriteTo(e.c)
	return err
}

func (e *tcpEP) SetHandler(h Handler) {
	e.mu.Lock()
	e.h = h
	e.mu.Unlock()
}

// Close says goodbye by closing the sending half and waits for the hub
// to hang up, which it does after releasing the name: when Close
// returns, the name can be claimed again. It waits for the read loop,
// so (like wire.Conn.Close) it must not be called from a handler.
func (e *tcpEP) Close() error {
	if !e.closed.Swap(true) {
		e.c.CloseWrite()
		e.c.SetReadDeadline(time.Now().Add(writeDeadline)) // a hub that is gone says nothing
	}
	<-e.done
	return nil
}

func (e *tcpEP) readLoop() {
	defer close(e.done)
	defer e.c.Close() // the hub hung up: sends must fail from here on
	for {
		// A fresh buffer per frame: the handler may keep the payload.
		buf, err := readFrame(e.br, nil)
		if err != nil {
			return
		}
		env, err := parseEnvelope(buf[hdrLen:])
		if err != nil {
			return
		}
		e.mu.Lock()
		h := e.h
		e.mu.Unlock()
		if h != nil && !e.closed.Load() {
			h(Message{From: string(env.from), To: e.name, Kind: string(env.kind), Payload: env.payload})
		}
	}
}
