// Package registry is the Ibis registry substrate the paper's runtime
// depends on: a centralised membership service that tells the
// application processes about each other, detects faults through
// heartbeats, and carries signals — the mechanism the adaptation
// coordinator uses to tell processors to leave the computation.
//
// The server and its clients talk over any transport.Fabric, so the
// same code runs in-process (tests, examples, emulated clusters) and
// across machines (TCP hub).
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ServerName is the registry's well-known endpoint name.
const ServerName = "registry"

// NodeInfo describes one member.
type NodeInfo struct {
	ID      core.NodeID
	Cluster core.ClusterID
}

// EventKind labels membership events.
type EventKind int

const (
	// Joined: a new member entered the run.
	Joined EventKind = iota
	// Left: a member departed gracefully.
	Left
	// Died: the server's failure detector declared a member dead.
	Died
	// SignalEvent: a signal (e.g. "leave") addressed to this client.
	SignalEvent
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Joined:
		return "joined"
	case Left:
		return "left"
	case Died:
		return "died"
	case SignalEvent:
		return "signal"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one membership or signal notification.
type Event struct {
	Kind   EventKind
	Node   NodeInfo
	Signal string
}

// Options tune the failure detector. They are the server's: it tells
// every client its heartbeat interval in the join ack, so a deployment
// states them once, where it starts the server.
type Options struct {
	// HeartbeatInterval is how often clients report liveness (default
	// 200ms; a client passing zero to Join adopts the server's).
	HeartbeatInterval time.Duration
	// FailureTimeout is the silence after which the server declares a
	// member dead (default 3 heartbeat intervals).
	FailureTimeout time.Duration
}

func (o *Options) defaults() {
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 200 * time.Millisecond
	}
	if o.FailureTimeout == 0 {
		o.FailureTimeout = 3 * o.HeartbeatInterval
	}
}

// wire payloads
type joinMsg struct{ Info NodeInfo }
type joinAck struct {
	HeartbeatInterval time.Duration // the server's; see Join
	Members           []NodeInfo
}
type leaveMsg struct{ ID core.NodeID }
type heartbeatMsg struct{ ID core.NodeID }
type eventMsg struct{ Event Event }
type signalReq struct {
	To     core.NodeID
	Signal string
}

func init() {
	wire.Register[joinMsg]("join")
	wire.Register[joinAck]("join-ack")
	wire.Register[leaveMsg]("leave")
	wire.Register[heartbeatMsg]("hb")
	wire.Register[eventMsg]("event")
	wire.Register[signalReq]("signal-req")
}

func clientEP(id core.NodeID) string { return "reg:" + string(id) }

// Server is the central registry process.
type Server struct {
	wc  *wire.Conn
	opt Options

	mu      sync.Mutex
	members map[core.NodeID]*member
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type member struct {
	info     NodeInfo
	lastSeen time.Time
}

// NewServer starts the registry on the fabric.
func NewServer(f transport.Fabric, opt Options) (*Server, error) {
	opt.defaults()
	ep, err := f.Endpoint(ServerName)
	if err != nil {
		return nil, err
	}
	s := &Server{
		wc:      wire.New(ep),
		opt:     opt,
		members: make(map[core.NodeID]*member),
		stop:    make(chan struct{}),
	}
	wire.Handle(s.wc, s.onJoin)
	wire.Handle(s.wc, s.onLeave)
	wire.Handle(s.wc, s.onHeartbeat)
	wire.Handle(s.wc, s.onSignalReq)
	s.wg.Add(1)
	go s.failureDetector()
	return s, nil
}

// Close shuts the server down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.wc.Close()
}

// Members returns the current membership, sorted by ID.
func (s *Server) Members() []NodeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeInfo, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Signal asks a member to act (the coordinator's "leave" messages).
func (s *Server) Signal(id core.NodeID, signal string) error {
	s.mu.Lock()
	m, ok := s.members[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("registry: signal %q to unknown member %s", signal, id)
	}
	ev := Event{Kind: SignalEvent, Node: m.info, Signal: signal}
	return wire.Send(s.wc, clientEP(id), eventMsg{Event: ev})
}

func (s *Server) onJoin(jm joinMsg, _ wire.Meta) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	_, rejoin := s.members[jm.Info.ID]
	s.members[jm.Info.ID] = &member{info: jm.Info, lastSeen: time.Now()}
	ack := joinAck{HeartbeatInterval: s.opt.HeartbeatInterval, Members: s.membersLocked()}
	others := s.otherEPsLocked(jm.Info.ID)
	s.mu.Unlock()
	wire.Send(s.wc, clientEP(jm.Info.ID), ack)
	if !rejoin { // retried joins must not duplicate the broadcast
		s.broadcast(others, Event{Kind: Joined, Node: jm.Info})
	}
}

func (s *Server) onLeave(lm leaveMsg, _ wire.Meta) {
	s.drop(lm.ID, Left)
}

func (s *Server) onHeartbeat(hb heartbeatMsg, _ wire.Meta) {
	s.mu.Lock()
	if m, ok := s.members[hb.ID]; ok {
		m.lastSeen = time.Now()
	}
	s.mu.Unlock()
}

func (s *Server) onSignalReq(sr signalReq, _ wire.Meta) {
	s.Signal(sr.To, sr.Signal)
}

func (s *Server) membersLocked() []NodeInfo {
	out := make([]NodeInfo, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *Server) otherEPsLocked(except core.NodeID) []string {
	var eps []string
	for id := range s.members {
		if id != except {
			eps = append(eps, clientEP(id))
		}
	}
	sort.Strings(eps)
	return eps
}

func (s *Server) broadcast(eps []string, ev Event) {
	// Each destination has its own session stream, so the event is
	// encoded per recipient (the descriptors already crossed each link).
	for _, ep := range eps {
		wire.Send(s.wc, ep, eventMsg{Event: ev})
	}
}

func (s *Server) drop(id core.NodeID, kind EventKind) {
	s.mu.Lock()
	m, ok := s.members[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.members, id)
	eps := s.otherEPsLocked(id)
	info := m.info
	s.mu.Unlock()
	s.broadcast(eps, Event{Kind: kind, Node: info})
}

func (s *Server) failureDetector() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opt.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			cutoff := time.Now().Add(-s.opt.FailureTimeout)
			s.mu.Lock()
			var dead []core.NodeID
			for id, m := range s.members {
				if m.lastSeen.Before(cutoff) {
					dead = append(dead, id)
				}
			}
			s.mu.Unlock()
			sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
			for _, id := range dead {
				s.drop(id, Died)
			}
		}
	}
}
