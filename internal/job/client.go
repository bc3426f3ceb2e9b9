package job

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ErrRejected marks a submit the service answered with a refusal (an
// invalid spec, or a draining service), as opposed to one that got no
// answer.
var ErrRejected = errors.New("submit rejected")

// Ctl is a control client of the service: it dials the fabric the
// daemon serves on (in-process in tests, the TCP hub in satind's
// client mode) and speaks the submit/status/cancel/result protocol.
// Replies are matched to requests by token, so one Ctl is safe for
// concurrent use.
type Ctl struct {
	wc *wire.Conn

	mu      sync.Mutex
	nextTok uint64
	waiters map[uint64]chan any
}

// Dial attaches a control client to the fabric under the given unique
// endpoint name (e.g. "satinctl-<pid>").
func Dial(f transport.Fabric, name string) (*Ctl, error) {
	ep, err := f.Endpoint(name)
	if err != nil {
		return nil, err
	}
	c := &Ctl{wc: wire.New(ep), waiters: make(map[uint64]chan any)}
	wire.Handle(c.wc, func(r SubmitReply, _ wire.Meta) { c.deliver(r.Token, r) })
	wire.Handle(c.wc, func(r StatusReply, _ wire.Meta) { c.deliver(r.Token, r) })
	wire.Handle(c.wc, func(r CancelReply, _ wire.Meta) { c.deliver(r.Token, r) })
	wire.Handle(c.wc, func(r ResultReply, _ wire.Meta) { c.deliver(r.Token, r) })
	wire.Handle(c.wc, func(r PingReply, _ wire.Meta) { c.deliver(r.Token, r) })
	if err := c.handshake(5 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake pings until the daemon answers. The fabric routes to this
// client from the moment Dial claimed its name; what the round trip
// proves is that a daemon is serving EndpointName on it.
func (c *Ctl) handshake(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("job: no answer from %s (is the daemon running?)", EndpointName)
		}
		probe := 200 * time.Millisecond
		if probe > left {
			probe = left
		}
		_, err := c.call(func(tok uint64) error {
			return wire.Send(c.wc, EndpointName, PingRequest{Token: tok})
		}, probe)
		if err == nil {
			return nil
		}
	}
}

// Close detaches the client.
func (c *Ctl) Close() { c.wc.Close() }

func (c *Ctl) deliver(tok uint64, reply any) {
	c.mu.Lock()
	ch, ok := c.waiters[tok]
	if ok {
		delete(c.waiters, tok)
	}
	c.mu.Unlock()
	if ok {
		ch <- reply // buffered; never blocks the fabric goroutine
	}
}

// call sends a request built from the allocated token and waits for
// its reply.
func (c *Ctl) call(build func(tok uint64) error, timeout time.Duration) (any, error) {
	c.mu.Lock()
	c.nextTok++
	tok := c.nextTok
	ch := make(chan any, 1)
	c.waiters[tok] = ch
	c.mu.Unlock()
	if err := build(tok); err != nil {
		c.mu.Lock()
		delete(c.waiters, tok)
		c.mu.Unlock()
		return nil, err
	}
	// A stopped timer is freed now; time.After's would live until it
	// fired, a whole timeout after the reply.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.waiters, tok)
		c.mu.Unlock()
		return nil, fmt.Errorf("job: no reply from %s within %v", EndpointName, timeout)
	}
}

// Submit enqueues a job and returns its assigned ID.
func (c *Ctl) Submit(spec Spec, timeout time.Duration) (string, error) {
	reply, err := c.call(func(tok uint64) error {
		return wire.Send(c.wc, EndpointName, SubmitRequest{Token: tok, Spec: spec})
	}, timeout)
	if err != nil {
		return "", err
	}
	r := reply.(SubmitReply)
	if r.Err != "" {
		return "", fmt.Errorf("%w: %s", ErrRejected, r.Err)
	}
	return r.ID, nil
}

// Status fetches one job's status (or all jobs' when id is empty).
func (c *Ctl) Status(id string, timeout time.Duration) ([]JobStatus, error) {
	reply, err := c.call(func(tok uint64) error {
		return wire.Send(c.wc, EndpointName, StatusRequest{Token: tok, ID: id})
	}, timeout)
	if err != nil {
		return nil, err
	}
	r := reply.(StatusReply)
	if r.Err != "" {
		return nil, fmt.Errorf("status: %s", r.Err)
	}
	return r.Jobs, nil
}

// Cancel cancels a job.
func (c *Ctl) Cancel(id string, timeout time.Duration) error {
	reply, err := c.call(func(tok uint64) error {
		return wire.Send(c.wc, EndpointName, CancelRequest{Token: tok, ID: id})
	}, timeout)
	if err != nil {
		return err
	}
	if r := reply.(CancelReply); r.Err != "" {
		return fmt.Errorf("cancel: %s", r.Err)
	}
	return nil
}

// Result fetches a job's result; wait blocks server-side until the
// job finishes (the timeout still bounds the whole call).
func (c *Ctl) Result(id string, wait bool, timeout time.Duration) (ResultReply, error) {
	reply, err := c.call(func(tok uint64) error {
		return wire.Send(c.wc, EndpointName, ResultRequest{Token: tok, ID: id, Wait: wait})
	}, timeout)
	if err != nil {
		return ResultReply{}, err
	}
	r := reply.(ResultReply)
	if r.Err != "" && r.State == "" {
		return r, fmt.Errorf("result: %s", r.Err)
	}
	return r, nil
}
