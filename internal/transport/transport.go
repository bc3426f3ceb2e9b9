// Package transport is the messaging substrate of the real runtime —
// the role the Ibis communication library plays in the paper. It
// offers named endpoints exchanging opaque frames (typed one layer
// up, in internal/transport/wire) over two interchangeable fabrics:
//
//   - InProc: an in-process fabric whose directed links carry
//     configurable latency and bandwidth (token-bucket serialisation),
//     used by tests, the examples, and the satin runtime's emulated
//     multi-cluster deployments — including the traffic-shaping
//     scenario (throttle one cluster's links at runtime);
//   - TCP: a hub-routed fabric over real sockets (stdlib net), in the
//     style of Ibis' registry/hub deployment, used when nodes run as
//     separate processes.
package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Message is one delivered frame.
type Message struct {
	From    string
	To      string
	Kind    string
	Payload []byte
}

// Handler consumes delivered frames. Handlers run on fabric goroutines
// and must not block for long.
type Handler func(Message)

// Endpoint is one attached party.
type Endpoint interface {
	// Name returns the endpoint's fabric-unique name.
	Name() string
	// Send delivers a frame to the named endpoint asynchronously.
	// Delivery order between one sender/receiver pair is preserved.
	Send(to, kind string, payload []byte) error
	// SetHandler installs the delivery callback. Must be called before
	// the first frame arrives; frames delivered earlier are dropped.
	SetHandler(Handler)
	// Close detaches the endpoint: sends from it fail, and when Close
	// returns the name can be claimed again.
	Close() error
}

// Fabric connects endpoints.
type Fabric interface {
	// Endpoint attaches a new named endpoint. A name that is taken is an
	// error (callers use the claim as a lock); when Endpoint returns,
	// frames sent to the name reach it.
	Endpoint(name string) (Endpoint, error)
}

// ErrClosed is returned when sending from or to a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknown is returned when the destination is not attached.
var ErrUnknown = errors.New("transport: unknown endpoint")

// LinkParams shape one directed in-process link.
type LinkParams struct {
	// Latency is the one-way delivery delay.
	Latency time.Duration
	// Bandwidth in bytes/second serialises payloads; 0 means infinite.
	Bandwidth float64
}

// LinkFunc returns the current link parameters for a directed pair.
// It is consulted per send, so shaping changes take effect immediately.
type LinkFunc func(from, to string) LinkParams

// InProc is the in-process fabric. Each directed endpoint pair owns a
// long-lived link worker draining a double-buffered queue: a send is
// an append plus a condition signal instead of a goroutine spawn, and
// per-pair FIFO falls out of the single consumer rather than a chain
// of predecessor channels.
type InProc struct {
	mu        sync.Mutex
	endpoints map[string]*inprocEP
	link      LinkFunc
	free      map[[2]string]time.Time   // directed-link serialisation
	links     map[[2]string]*inprocLink // per-pair delivery workers
	wg        sync.WaitGroup
	closed    bool
	closing   chan struct{} // closed by Close: link workers stop waiting
}

// NewInProc builds a fabric; link may be nil (ideal network).
func NewInProc(link LinkFunc) *InProc {
	return &InProc{
		endpoints: make(map[string]*inprocEP),
		link:      link,
		free:      make(map[[2]string]time.Time),
		links:     make(map[[2]string]*inprocLink),
		closing:   make(chan struct{}),
	}
}

// linkFrame is one queued delivery on a directed link.
type linkFrame struct {
	msg      Message
	deadline time.Time
}

// inprocLink carries one directed pair's in-flight frames to its
// worker goroutine.
type inprocLink struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []linkFrame
	closed bool
}

// sleepGrain is what a time.Sleep can overshoot by: a P with nothing
// to run waits for its next timer inside the netpoller, whose timeout
// is whole milliseconds, rounded up below one. A 200 µs LAN hop slept
// that way takes 1.1 ms.
const sleepGrain = time.Millisecond

// waitUntil returns true at the deadline: not before it, and after it
// only by scheduling noise. The timer (the worker's own, stopped or
// drained) covers all but the last sleepGrain (the goroutine parks, no
// thread is held), sleepFine blocks a thread for the rest, and a yield
// loop closes whatever gap sleepFine left (tens of microseconds at
// most) so that a frame is never early. A fabric that closes during the
// coarse part ends the wait with false: the frame is one Close drops.
// An endpoint closing does not, because a leaver's last frames, sent
// before it detached, must still arrive.
func waitUntil(deadline time.Time, timer *time.Timer, closing <-chan struct{}) bool {
	d := time.Until(deadline)
	if d > sleepGrain {
		timer.Reset(d - sleepGrain)
		select {
		case <-timer.C:
		case <-closing:
			timer.Stop()
			return false
		}
		d = time.Until(deadline)
	}
	if d <= 0 {
		return true
	}
	sleepFine(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return true
}

// runLink is a directed pair's delivery worker: it swaps the queue
// against a reused local buffer (so senders never wait on delivery)
// and hands frames to the destination handler in FIFO order, honouring
// each frame's shaped deadline.
func (f *InProc) runLink(l *inprocLink, dst *inprocEP) {
	defer f.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var local []linkFrame
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 {
			l.mu.Unlock()
			return
		}
		local, l.queue = l.queue, local[:0]
		l.mu.Unlock()
		for i := range local {
			q := &local[i]
			if !waitUntil(q.deadline, timer, f.closing) {
				return
			}
			dst.mu.Lock()
			h := dst.handler
			closed := dst.closed
			dst.mu.Unlock()
			if h != nil && !closed {
				h(q.msg)
			}
			q.msg = Message{} // release the payload before the buffer is reused
			// Yield between deliveries. Queued frames whose deadlines have
			// already passed are otherwise handed to consecutive handlers
			// with no scheduling point, which starves the goroutines those
			// handlers wake: a steal reply carrying a job and the next
			// incoming steal request would both run before the woken
			// worker, so the job is re-stolen out of the inbox every time
			// and ping-pongs between idle nodes instead of executing. The
			// old goroutine-per-frame fabric yielded implicitly on every
			// goroutine exit; keep that fairness explicitly.
			runtime.Gosched()
		}
		l.mu.Lock()
	}
}

// Endpoint implements Fabric.
func (f *InProc) Endpoint(name string) (Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, ok := f.endpoints[name]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already attached", name)
	}
	ep := &inprocEP{fabric: f, name: name}
	f.endpoints[name] = ep
	return ep, nil
}

// Close tears the fabric down and waits for its link workers. Frames
// still in flight are dropped, not waited for: a worker sleeping
// towards a frame's deadline is woken and exits. Idempotent.
func (f *InProc) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.closing)
	}
	eps := make([]*inprocEP, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		eps = append(eps, ep)
	}
	f.endpoints = map[string]*inprocEP{}
	f.free = map[[2]string]time.Time{}
	links := make([]*inprocLink, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.links = map[[2]string]*inprocLink{}
	f.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		ep.mu.Unlock()
	}
	for _, l := range links {
		l.mu.Lock()
		l.closed = true
		l.queue = nil // closed endpoints drop in-flight frames anyway
		l.cond.Signal()
		l.mu.Unlock()
	}
	f.wg.Wait()
}

func (f *InProc) send(from *inprocEP, to, kind string, payload []byte) error {
	from.mu.Lock()
	fromClosed := from.closed
	from.mu.Unlock()
	if fromClosed {
		return ErrClosed
	}
	f.mu.Lock()
	dst, ok := f.endpoints[to]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknown, to)
	}
	delay := time.Duration(0)
	if f.link != nil {
		lp := f.link(from.name, to)
		delay = lp.Latency
		if lp.Bandwidth > 0 {
			ser := time.Duration(float64(len(payload)) / lp.Bandwidth * float64(time.Second))
			key := [2]string{from.name, to}
			now := time.Now()
			start := now
			if free, ok := f.free[key]; ok && free.After(start) {
				start = free
			}
			f.free[key] = start.Add(ser)
			delay += start.Sub(now) + ser
		}
	}
	key := [2]string{from.name, to}
	l, ok := f.links[key]
	if !ok {
		l = &inprocLink{}
		l.cond = sync.NewCond(&l.mu)
		f.links[key] = l
		f.wg.Add(1)
		go f.runLink(l, dst)
	}
	var deadline time.Time
	if delay > 0 {
		deadline = time.Now().Add(delay)
	}
	f.mu.Unlock()

	l.mu.Lock()
	l.queue = append(l.queue, linkFrame{
		msg:      Message{From: from.name, To: to, Kind: kind, Payload: payload},
		deadline: deadline,
	})
	l.cond.Signal()
	l.mu.Unlock()
	return nil
}

type inprocEP struct {
	fabric *InProc
	name   string

	mu      sync.Mutex
	handler Handler
	closed  bool
}

func (e *inprocEP) Name() string { return e.name }

func (e *inprocEP) Send(to, kind string, payload []byte) error {
	return e.fabric.send(e, to, kind, payload)
}

func (e *inprocEP) SetHandler(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

func (e *inprocEP) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	f := e.fabric
	f.mu.Lock()
	delete(f.endpoints, e.name)
	// Retire the serialisation state and link workers of every pair
	// touching this endpoint: long-lived fabrics with churning
	// endpoints (the emulated grid provisions and evicts nodes all
	// run) must not accumulate dead-pair state without bound, and a
	// re-attached endpoint under the same name must get fresh links
	// bound to the new endpoint, not the dead one.
	for key := range f.free {
		if key[0] == e.name || key[1] == e.name {
			delete(f.free, key)
		}
	}
	var retired []*inprocLink
	for key, l := range f.links {
		if key[0] == e.name || key[1] == e.name {
			retired = append(retired, l)
			delete(f.links, key)
		}
	}
	f.mu.Unlock()
	for _, l := range retired {
		l.mu.Lock()
		l.closed = true
		l.cond.Signal()
		l.mu.Unlock()
	}
	return nil
}
