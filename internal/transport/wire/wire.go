// Package wire is the typed, instrumented messaging layer on top of
// transport: the part of the Ibis stand-in that every protocol in the
// repository (satin's steal/result traffic, the registry, the
// adaptation report path) speaks instead of hand-rolling `switch
// msg.Kind` dispatch and a codec per message.
//
// Three ideas:
//
//   - a frame registry: Register[T]("kind") once per message type, then
//     Send(conn, to, v) and Handle(conn, func(T, Meta)) are type-safe —
//     the kind string never appears at call sites again. A frame type
//     brings its own binary codec (wirefmt.Frame) or does not compile;
//   - (epoch, seq) sessions: every frame is self-contained and carries
//     its directed pair's (epoch, seq), which buys at-most-once,
//     in-order delivery with nothing flowing back to the sender.
//     Every fabric keeps a pair's frames in send order, so the receive
//     session is a cursor and nothing more: a stale epoch is counted and
//     dropped, a newer one adopted from seq 0; seq below the cursor is a
//     counted duplicate; seq above it means the frames in between were
//     lost, so the gap is counted and the frame delivered at once; an
//     unknown kind or a decode error is counted and consumes its slot.
//     Incarnation rules: send sessions draw epochs from one process-wide
//     monotone, clock-seeded source, so a new Conn under a reused
//     endpoint name outranks its predecessor on its first frame; and a
//     receive session adopts the first epoch it sees, so a rejoined
//     endpoint picks up a mid-stream sender on its first frame (a gap
//     at seq 0: counted as wire/pickup, not as loss);
//   - observability: every frame, byte, duplicate, stale frame, skipped
//     gap and decode error is counted in internal/obs, per message kind
//     and per directed cluster pair. A malformed frame is a counted,
//     once-logged protocol error — never a silent drop.
//
// Layering: obs depends on nothing; wire feeds obs; chaos and the
// binaries read obs. wire depends only on transport, wirefmt, obs and
// (for the endpoint naming convention its pair counters follow) topo.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// ---- frame registry ----

var (
	regMu      sync.RWMutex
	kindByType = make(map[reflect.Type]string)
	typeByKind = make(map[string]reflect.Type)
)

// framePtr constrains a message type T to those whose pointer carries
// the binary codec, so registering, sending or handling a type without
// one is a compile error rather than a second codec path.
type framePtr[T any] interface {
	*T
	wirefmt.Frame
}

// Register associates a message type with its frame kind. Call once
// per type, at package init. Re-registering the identical pair is a
// no-op (several packages may share a kind, e.g. "report"); conflicts
// panic immediately — they are wiring bugs.
func Register[T any, PT framePtr[T]](kind string) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if kind == "" || strings.HasPrefix(kind, "\x00") {
		panic(fmt.Sprintf("wire: invalid kind %q for %v", kind, t))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := typeByKind[kind]; ok {
		if prev == t {
			return
		}
		panic(fmt.Sprintf("wire: kind %q registered for both %v and %v", kind, prev, t))
	}
	if prev, ok := kindByType[t]; ok {
		panic(fmt.Sprintf("wire: type %v registered for both kinds %q and %q", t, prev, kind))
	}
	typeByKind[kind] = t
	kindByType[t] = kind
}

func kindOf(t reflect.Type) (kind string, ok bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	kind, ok = kindByType[t]
	return kind, ok
}

// ---- frame format ----

// Each frame payload is a 12-byte header (epoch uint32, seq uint48,
// check uint16, big endian) followed by exactly one value in its type's
// binary codec. 48 bits of seq last a pair nine years at a million
// frames a second. The check is what lets a receiver move its cursor on
// a single frame's say-so with no way to ask the sender: a header
// damaged in flight is a lost frame (a gap, skipped), never a cursor
// thrown ahead of the sender for good.
const headerLen = 12

func headerCheck(p []byte) uint16 { return uint16(crc32.ChecksumIEEE(p[:10])) }

func putHeader(p []byte, epoch uint32, seq uint64) {
	binary.BigEndian.PutUint32(p[0:4], epoch)
	binary.BigEndian.PutUint64(p[4:12], seq<<16)
	binary.BigEndian.PutUint16(p[10:12], headerCheck(p))
}

func parseHeader(p []byte) (epoch uint32, seq uint64, ok bool) {
	if len(p) < headerLen || binary.BigEndian.Uint16(p[10:12]) != headerCheck(p) {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint64(p[4:12]) >> 16, true
}

// ctrlBatch is the reserved control kind carrying a coalesced envelope
// of logical frames (batch.go).
const ctrlBatch = "\x00wire-batch"

// Meta describes a delivered frame to its handler.
type Meta struct {
	// From is the sending endpoint's name.
	From string
	// Bytes is the frame's payload size on the wire (header included).
	Bytes int
}

// clusterLabel is an endpoint's cluster for the per-pair counters;
// infrastructure endpoints, which have none, count under "-".
func clusterLabel(ep string) string {
	if c := topo.ClusterOf(ep); c != "" {
		return string(c)
	}
	return "-"
}

func pairLabel(from, to string) string {
	return clusterLabel(from) + ">" + clusterLabel(to)
}

// kindCounters caches the per-kind obs counters a session touches on
// its hot path, so steady-state counting is a map read plus an atomic.
type kindCounters struct {
	frames, bytes *obs.Counter
}

func countKind(cache map[string]*kindCounters, dir, kind string, size int) {
	kc := cache[kind]
	if kc == nil {
		kc = &kindCounters{
			frames: obs.Default.Counter("wire/frames_" + dir + "/" + kind),
			bytes:  obs.Default.Counter("wire/bytes_" + dir + "/" + kind),
		}
		cache[kind] = kc
	}
	kc.frames.Inc()
	kc.bytes.Add(uint64(size))
}

// logOnce ensures each (problem, subject) pair is logged a single time
// per process; after that the obs counters carry the signal. Subjects
// are frame kinds or cluster pairs — both bounded by the program and
// its topology — never endpoint names, which a long-lived service sees
// an unbounded number of.
var logOnce sync.Map

func logKindOnce(problem, subject string, err error) {
	key := problem + "/" + subject
	if _, loaded := logOnce.LoadOrStore(key, struct{}{}); !loaded {
		if err != nil {
			log.Printf("wire: %s on %q: %v (counted in obs, logged once)", problem, subject, err)
		} else {
			log.Printf("wire: %s on %q (counted in obs, logged once)", problem, subject)
		}
	}
}

// lastEpoch is the process-wide source of session epochs. Monotone, so
// a new Conn under a reused endpoint name (and every restarted send
// session) outranks what its peers remember of the old one; seeded from
// the clock, so a restarted process outranks its previous run too,
// unless that run spent more epochs than it lived seconds (one per send
// session opened, one per restart of a stream that had frames in flight).
var lastEpoch atomic.Uint32

func init() { lastEpoch.Store(uint32(time.Now().Unix())) }

// ---- connection ----

// Conn wraps one transport endpoint with typed dispatch and (epoch,
// seq) sessions. Create with New, register handlers with Handle, send
// with Send. Handlers run one at a time and in order per sending peer,
// on fabric delivery goroutines, and may call Send.
type Conn struct {
	ep    transport.Endpoint
	batch BatchConfig // zero = coalescing off

	mu       sync.RWMutex
	handlers map[string]handlerFunc
	sends    map[string]*sendSession
	recvs    map[string]*recvSession
	closed   bool
}

// handlerFunc decodes one in-order frame body and dispatches it.
type handlerFunc func(data []byte, m Meta) error

// Option configures a Conn at New time.
type Option func(*Conn)

// New wraps ep, installing its delivery handler. The caller must not
// call ep.SetHandler afterwards.
func New(ep transport.Endpoint, opts ...Option) *Conn {
	c := &Conn{
		ep:       ep,
		handlers: make(map[string]handlerFunc),
		sends:    make(map[string]*sendSession),
		recvs:    make(map[string]*recvSession),
	}
	for _, o := range opts {
		o(c)
	}
	ep.SetHandler(c.handle)
	return c
}

// Close flushes pending frame batches and detaches the endpoint.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	sends := make([]*sendSession, 0, len(c.sends))
	for _, ss := range c.sends {
		sends = append(sends, ss)
	}
	c.mu.Unlock()
	for _, ss := range sends {
		ss.mu.Lock()
		ss.flushLocked(c) // best effort; the endpoint may already refuse
		ss.mu.Unlock()
	}
	return c.ep.Close()
}

// Handle registers the typed handler for T's kind. One handler per
// kind per Conn; T must have been Registered.
func Handle[T any, PT framePtr[T]](c *Conn, h func(T, Meta)) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	kind, ok := kindOf(t)
	if !ok {
		panic(fmt.Sprintf("wire: Handle of unregistered type %v", t))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.handlers[kind]; dup {
		panic(fmt.Sprintf("wire: duplicate handler for kind %q on %s", kind, c.ep.Name()))
	}
	c.handlers[kind] = func(data []byte, m Meta) error {
		var v T
		r := wirefmt.NewReader(data)
		if err := PT(&v).DecodeWire(&r); err != nil {
			return err
		}
		if err := r.Finish(); err != nil {
			return err
		}
		h(v, m)
		return nil
	}
}

// Send encodes v and sends it as one frame on the session to the
// destination endpoint. An encoding failure is counted and returned;
// frames are self-contained, so the session is untouched and the caller
// can send a fallback message safely.
func Send[T any, PT framePtr[T]](c *Conn, to string, v T) error {
	t := reflect.TypeOf((*T)(nil)).Elem()
	kind, ok := kindOf(t)
	if !ok {
		return fmt.Errorf("wire: send of unregistered type %v", t)
	}
	p, err := PT(&v).AppendWire(make([]byte, headerLen, headerLen+64))
	if err != nil {
		obs.Default.Counter("wire/encode_err/" + kind).Inc()
		logKindOnce("encode error", kind, err)
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
	ss := c.sendSession(to)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	putHeader(p, ss.epoch, ss.seq)
	ss.seq++
	countKind(ss.kindC, "out", kind, len(p))
	ss.pairFrames.Inc()
	ss.pairBytes.Add(uint64(len(p)))
	// Dispatch under the session lock: the fabric's per-pair FIFO must
	// see frames in sequence order.
	if err := ss.dispatchLocked(c, kind, p); err != nil {
		// The frame never left (endpoint gone, fabric refused) but its
		// sequence number is spent: the next successful send would open
		// a gap the receiver counts as lost frames. A restart makes the
		// next send the start of a stream; the receiver adopts it on
		// arrival.
		ss.restartLocked()
		obs.Default.Counter("wire/send_err/" + kind).Inc()
		return err
	}
	return nil
}

// ---- send sessions ----

type sendSession struct {
	mu    sync.Mutex
	to    string
	epoch uint32
	seq   uint64

	// coalescing state (batch.go); idle when the Conn has no BatchConfig
	batchBuf   []byte
	batchN     int
	batchTimer *time.Timer
	batchesOut *obs.Counter

	kindC                 map[string]*kindCounters
	pairFrames, pairBytes *obs.Counter
}

func (c *Conn) sendSession(to string) *sendSession {
	c.mu.RLock()
	ss, ok := c.sends[to]
	c.mu.RUnlock()
	if ok {
		return ss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ss, ok := c.sends[to]; ok {
		return ss
	}
	pair := pairLabel(c.ep.Name(), to)
	ss = &sendSession{
		to:         to,
		epoch:      lastEpoch.Add(1),
		kindC:      make(map[string]*kindCounters),
		batchesOut: obs.Default.Counter("wire/batches_out/" + pair),
		pairFrames: obs.Default.Counter("wire/pair_frames_out/" + pair),
		pairBytes:  obs.Default.Counter("wire/pair_bytes_out/" + pair),
	}
	c.sends[to] = ss
	return ss
}

// restartLocked begins a fresh stream under a new epoch. Frames still
// coalesced in the batch buffer carry the abandoned epoch and would
// arrive stale; they are discarded, exactly as in-flight frames of the
// old epoch are. A stream whose only frame was the refused one has
// nothing in flight and keeps its epoch, so retrying against a dead
// peer does not run the epoch source ahead of the clock.
func (ss *sendSession) restartLocked() {
	if ss.seq > 1 {
		ss.epoch = lastEpoch.Add(1)
	}
	ss.seq = 0
	ss.discardBatchLocked()
}

// ---- receive sessions ----

// recvSession is one peer's delivery cursor: frames below (epoch, next)
// are refused, every other frame is delivered and moves the cursor past
// itself.
type recvSession struct {
	mu    sync.Mutex
	epoch uint32
	next  uint64

	kindC                 map[string]*kindCounters
	pairFrames, pairBytes *obs.Counter
}

// recvSession returns the session for frames from the named peer. A new
// one sits below every epoch, so it adopts the first it sees from seq 0,
// and a first frame with a higher seq is a sender this endpoint joined
// mid-stream (it rejoined under a name the sender already talked to).
func (c *Conn) recvSession(from string) *recvSession {
	c.mu.RLock()
	rs, ok := c.recvs[from]
	c.mu.RUnlock()
	if ok {
		return rs
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rs, ok := c.recvs[from]; ok {
		return rs
	}
	pair := pairLabel(from, c.ep.Name())
	rs = &recvSession{
		kindC:      make(map[string]*kindCounters),
		pairFrames: obs.Default.Counter("wire/pair_frames_in/" + pair),
		pairBytes:  obs.Default.Counter("wire/pair_bytes_in/" + pair),
	}
	c.recvs[from] = rs
	return rs
}

func (c *Conn) isClosed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.closed
}

// handle is the transport delivery callback: session bookkeeping, then
// typed dispatch.
func (c *Conn) handle(msg transport.Message) {
	if c.isClosed() {
		return
	}
	if msg.Kind == ctrlBatch {
		c.handleBatch(msg)
		return
	}
	epoch, seq, ok := parseHeader(msg.Payload)
	if !ok {
		obs.Default.Counter("wire/decode_err/" + msg.Kind).Inc()
		logKindOnce("truncated or corrupt frame header", msg.Kind, nil)
		return
	}
	rs := c.recvSession(msg.From)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.pairFrames.Inc()
	rs.pairBytes.Add(uint64(len(msg.Payload)))
	countKind(rs.kindC, "in", msg.Kind, len(msg.Payload))

	switch {
	case epoch < rs.epoch:
		// A frame of an abandoned stream arriving late (sent by an
		// incarnation that has been replaced).
		obs.Default.Counter("wire/stale/" + msg.Kind).Inc()
		return
	case epoch > rs.epoch:
		// The sender restarted the stream, or a new incarnation took the
		// name: adopt its epoch from seq 0.
		rs.epoch, rs.next = epoch, 0
	}
	switch {
	case seq < rs.next:
		// Already processed: a transport-level duplicate.
		obs.Default.Counter("wire/dup/" + msg.Kind).Inc()
		return
	case seq > rs.next:
		// The fabric keeps the pair's order, so the frames in between are
		// not late but lost (a drop, a partition, a corrupted header, a
		// refused dispatch the sender did not see); one lost frame costs
		// that frame, not its successors. A gap at seq 0 is counted apart
		// and not logged: nothing of this epoch has been delivered, so
		// what is skipped is, as far as this receiver can know, a
		// conversation with its predecessor under the name (a rejoined
		// endpoint picking up a mid-stream sender), not a hole in its own.
		pair := pairLabel(msg.From, c.ep.Name())
		if rs.next == 0 {
			obs.Default.Counter("wire/pickup/" + pair).Inc()
		} else {
			obs.Default.Counter("wire/desync/" + pair).Inc()
			logKindOnce("frames lost, sequence gap skipped", pair, nil)
		}
	}
	rs.next = seq + 1
	c.deliverLocked(msg.From, msg.Kind, msg.Payload[headerLen:])
}

// deliverLocked dispatches a frame the cursor has accepted. Frames are
// self-contained: one without a handler or with a malformed body is
// counted and consumes its slot, and the stream continues.
func (c *Conn) deliverLocked(from, kind string, data []byte) {
	c.mu.RLock()
	h, ok := c.handlers[kind]
	c.mu.RUnlock()
	if !ok {
		obs.Default.Counter("wire/unknown_kind/" + kind).Inc()
		logKindOnce("no handler", kind, nil)
		return
	}
	if err := h(data, Meta{From: from, Bytes: headerLen + len(data)}); err != nil {
		obs.Default.Counter("wire/decode_err/" + kind).Inc()
		logKindOnce("decode error", kind, err)
	}
}
