package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Client is one member's registry session. It keeps an up-to-date
// membership view, heartbeats automatically once joined, and delivers
// membership events and signals through an unbounded internal queue (so
// slow consumers never block the transport and never lose a Died event
// the fault-tolerance layer depends on).
type Client struct {
	info NodeInfo
	wc   *wire.Conn
	opt  Options

	mu      sync.Mutex
	members map[core.NodeID]NodeInfo
	joined  chan struct{} // closed on the join-ack
	failed  chan struct{} // closed when the join gives up; err says why
	err     error
	settled sync.Once // closes exactly one of joined and failed
	queue   []Event
	cond    *sync.Cond
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	events chan Event
}

// Begin attaches a member to the registry and sends its join without
// waiting for the ack. Joined closes when the ack arrives, Failed when
// the join gives up. The server owns the deployment's membership timing:
// a client whose opt.HeartbeatInterval is zero heartbeats at the
// interval the ack carries, so a member cannot be declared dead for
// running on defaults the server was not started with. A non-zero
// interval still wins.
func Begin(f transport.Fabric, info NodeInfo, opt Options) (*Client, error) {
	ep, err := f.Endpoint(clientEP(info.ID))
	if err != nil {
		return nil, err
	}
	c := &Client{
		info:    info,
		wc:      wire.New(ep),
		opt:     opt,
		members: make(map[core.NodeID]NodeInfo),
		joined:  make(chan struct{}),
		failed:  make(chan struct{}),
		stop:    make(chan struct{}),
		events:  make(chan Event, 16),
	}
	c.cond = sync.NewCond(&c.mu)
	wire.Handle(c.wc, c.onJoinAck)
	wire.Handle(c.wc, c.onEvent)
	join := joinMsg{Info: info}
	if err := wire.Send(c.wc, ServerName, join); err != nil {
		c.wc.Close()
		return nil, err
	}
	c.wg.Add(2)
	go c.session(join)
	go c.pump()
	return c, nil
}

// Join is Begin followed by a wait for the ack. A join that gives up
// leaves nothing behind.
func Join(f transport.Fabric, info NodeInfo, opt Options) (*Client, error) {
	c, err := Begin(f, info, opt)
	if err != nil {
		return nil, err
	}
	select {
	case <-c.joined:
		return c, nil
	case <-c.failed:
		c.Close()
		return nil, c.err
	}
}

// Joined is closed once the server has acknowledged the join; Members
// then holds everyone who joined before this member.
func (c *Client) Joined() <-chan struct{} { return c.joined }

// Failed is closed when the join gives up; Err says why.
func (c *Client) Failed() <-chan struct{} { return c.failed }

// Err is why the join gave up, or nil while it has not.
func (c *Client) Err() error {
	select {
	case <-c.failed:
		return c.err
	default:
		return nil
	}
}

// Events delivers membership events and signals in order.
func (c *Client) Events() <-chan Event { return c.events }

// Members returns the current membership view, including self.
func (c *Client) Members() []NodeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeInfo, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m)
	}
	return out
}

// Signal routes a signal to another member through the server.
func (c *Client) Signal(to core.NodeID, signal string) error {
	return wire.Send(c.wc, ServerName, signalReq{To: to, Signal: signal})
}

// Leave departs gracefully and shuts the session down.
func (c *Client) Leave() error {
	err := wire.Send(c.wc, ServerName, leaveMsg{ID: c.info.ID})
	c.Close()
	return err
}

// Close stops the session abruptly — from the server's point of view
// the member just went silent, so the failure detector will declare it
// dead: exactly how a crash looks.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	c.wc.Close()
}

func (c *Client) onJoinAck(ack joinAck, _ wire.Meta) {
	c.mu.Lock()
	for _, m := range ack.Members {
		c.members[m.ID] = m
	}
	c.mu.Unlock()
	c.settled.Do(func() {
		if c.opt.HeartbeatInterval == 0 {
			c.opt.HeartbeatInterval = ack.HeartbeatInterval
		}
		close(c.joined)
	})
}

func (c *Client) onEvent(em eventMsg, _ wire.Meta) {
	c.mu.Lock()
	switch em.Event.Kind {
	case Joined:
		c.members[em.Event.Node.ID] = em.Event.Node
	case Left, Died:
		delete(c.members, em.Event.Node.ID)
	}
	c.queue = append(c.queue, em.Event)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pump moves events from the unbounded queue to the consumer channel.
func (c *Client) pump() {
	defer c.wg.Done()
	defer close(c.events)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		ev := c.queue[0]
		c.queue = c.queue[1:]
		c.mu.Unlock()
		select {
		case c.events <- ev:
		case <-c.stop:
			return
		}
	}
}

// session waits for the join's ack, then heartbeats.
func (c *Client) session(join joinMsg) {
	defer c.wg.Done()
	if !c.awaitAck(join) {
		return
	}
	c.opt.defaults() // an ack without an interval leaves the default
	ticker := time.NewTicker(c.opt.HeartbeatInterval)
	defer ticker.Stop()
	hb := heartbeatMsg{ID: c.info.ID}
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			wire.Send(c.wc, ServerName, hb)
		}
	}
}

// awaitAck resends the join until it is acknowledged and reports
// whether it was. A lossy fabric can drop the join or its ack, and
// joining is idempotent on the server, so the join is resent every
// 100 ms for at most five seconds. A resend that finds this endpoint or
// its fabric closed gives up at once: the deployment was torn down, no
// ack will come.
func (c *Client) awaitAck(join joinMsg) bool {
	retry := time.NewTicker(100 * time.Millisecond)
	defer retry.Stop()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		select {
		case <-c.joined:
			return true
		case <-c.failed:
			return false
		case <-c.stop:
			return false
		case <-retry.C:
			if err := wire.Send(c.wc, ServerName, join); errors.Is(err, transport.ErrClosed) {
				c.fail(fmt.Errorf("registry: join of %s: %w", c.info.ID, err))
			}
		case <-deadline.C:
			c.fail(fmt.Errorf("registry: join of %s timed out", c.info.ID))
		}
	}
}

// fail settles the join as given up, unless the ack won the race.
func (c *Client) fail(err error) {
	c.settled.Do(func() {
		c.err = err
		close(c.failed)
	})
}
