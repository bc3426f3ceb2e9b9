package job

import (
	"fmt"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// EndpointName is the service's well-known control endpoint.
const EndpointName = "satind"

// Server exposes a Manager over the wire protocol. Handlers run on
// fabric delivery goroutines, so anything that can block (a waiting
// result fetch) is answered from its own goroutine.
type Server struct {
	m  *Manager
	wc *wire.Conn
}

// Serve attaches the control endpoint to the fabric.
func Serve(f transport.Fabric, m *Manager) (*Server, error) {
	ep, err := f.Endpoint(EndpointName)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, wc: wire.New(ep)}
	wire.Handle(s.wc, s.onSubmit)
	wire.Handle(s.wc, s.onStatus)
	wire.Handle(s.wc, s.onCancel)
	wire.Handle(s.wc, s.onResult)
	wire.Handle(s.wc, func(req PingRequest, m wire.Meta) {
		_ = wire.Send(s.wc, m.From, PingReply{Token: req.Token})
	})
	return s, nil
}

// Close detaches the control endpoint.
func (s *Server) Close() { s.wc.Close() }

func (s *Server) onSubmit(req SubmitRequest, m wire.Meta) {
	reply := SubmitReply{Token: req.Token}
	if j, err := s.m.Submit(req.Spec); err != nil {
		reply.Err = err.Error()
	} else {
		reply.ID = j.ID
	}
	_ = wire.Send(s.wc, m.From, reply)
}

func (s *Server) onStatus(req StatusRequest, m wire.Meta) {
	reply := StatusReply{Token: req.Token}
	if req.ID == "" {
		for _, j := range s.m.Jobs() {
			reply.Jobs = append(reply.Jobs, j.Status())
		}
	} else if j := s.m.Job(req.ID); j != nil {
		reply.Jobs = []JobStatus{j.Status()}
	} else {
		// Evicted, or never assigned: the record store's answer is a file
		// scan, so it is made off the fabric goroutine.
		go func() {
			if st, _, err := s.m.archived(req.ID); err != nil {
				reply.Err = err.Error()
			} else {
				reply.Jobs = []JobStatus{st}
			}
			_ = wire.Send(s.wc, m.From, reply)
		}()
		return
	}
	_ = wire.Send(s.wc, m.From, reply)
}

func (s *Server) onCancel(req CancelRequest, m wire.Meta) {
	reply := CancelReply{Token: req.Token}
	if err := s.m.Cancel(req.ID); err != nil {
		reply.Err = err.Error()
	}
	_ = wire.Send(s.wc, m.From, reply)
}

func (s *Server) onResult(req ResultRequest, m wire.Meta) {
	j := s.m.Job(req.ID)
	if j == nil {
		// Evicted, or never assigned: finished, so nothing to wait for, but
		// answered off the fabric goroutine like a status.
		go func() {
			reply := ResultReply{Token: req.Token, ID: req.ID}
			if _, r, err := s.m.archived(req.ID); err != nil {
				reply.Err = err.Error()
			} else {
				reply = r.reply(req.Token, req.ID)
			}
			_ = wire.Send(s.wc, m.From, reply)
		}()
		return
	}
	send := func() {
		terminal := j.State().Terminal() // a waiting fetch sends after Done
		reply := j.record().reply(req.Token, j.ID)
		if !terminal {
			reply.Err = fmt.Sprintf("job %s is %s (use wait)", j.ID, reply.State)
		}
		_ = wire.Send(s.wc, m.From, reply)
	}
	if req.Wait && !j.State().Terminal() {
		// Block off the fabric goroutine.
		go func() {
			<-j.Done()
			send()
		}()
		return
	}
	send()
}
