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
// membership view, heartbeats automatically, and delivers membership
// events and signals through an unbounded internal queue (so slow
// consumers never block the transport and never lose a Died event the
// fault-tolerance layer depends on).
type Client struct {
	info NodeInfo
	wc   *wire.Conn
	opt  Options

	mu      sync.Mutex
	members map[core.NodeID]NodeInfo
	joined  chan struct{} // closed on join-ack
	once    sync.Once
	queue   []Event
	cond    *sync.Cond
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	events chan Event
}

// Join attaches a member to the registry and waits for the ack. The
// server owns the deployment's membership timing: a client whose
// opt.HeartbeatInterval is zero heartbeats at the interval the ack
// carries, so a member cannot be declared dead for running on defaults
// the server was not started with. A non-zero interval still wins.
func Join(f transport.Fabric, info NodeInfo, opt Options) (*Client, error) {
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
		stop:    make(chan struct{}),
		events:  make(chan Event, 16),
	}
	c.cond = sync.NewCond(&c.mu)
	wire.Handle(c.wc, c.onJoinAck)
	wire.Handle(c.wc, c.onEvent)
	// The join is retried until acknowledged: a lossy fabric can drop
	// the join or its ack, and joining is idempotent on the server. A
	// retry that finds this endpoint or its fabric closed ends the wait:
	// the deployment was torn down, no ack will come.
	join := joinMsg{Info: info}
	deadline := time.After(5 * time.Second)
	if err := wire.Send(c.wc, ServerName, join); err != nil {
		c.wc.Close()
		return nil, err
	}
joinWait:
	for {
		select {
		case <-c.joined:
			break joinWait
		case <-time.After(100 * time.Millisecond):
			if err := wire.Send(c.wc, ServerName, join); errors.Is(err, transport.ErrClosed) {
				c.wc.Close()
				return nil, fmt.Errorf("registry: join of %s: %w", info.ID, err)
			}
		case <-deadline:
			c.wc.Close()
			return nil, fmt.Errorf("registry: join of %s timed out", info.ID)
		}
	}
	c.opt.defaults() // an ack without an interval leaves the default
	c.wg.Add(2)
	go c.heartbeatLoop()
	go c.pump()
	return c, nil
}

// Info returns this member's identity.
func (c *Client) Info() NodeInfo { return c.info }

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
	c.once.Do(func() {
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

func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
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
