package satin

import (
	"testing"
	"time"
)

// tgate occupies a node's worker: Execute announces it started, then
// blocks until released. It never crosses the wire successfully: its
// chan fields have no payload codec, so it is not registered, and a
// steal attempt takes the encode-fallback path and hands the job back.
type tgate struct {
	Started chan struct{}
	Release chan struct{}
}

func (g tgate) Execute(*Context) (any, error) {
	g.Started <- struct{}{}
	<-g.Release
	return 0, nil
}

// unregisteredResult is deliberately never registered: a task
// returning it produces a result frame that cannot be encoded.
type unregisteredResult struct{ X int }

type tbadResult struct{}

func (tbadResult) Execute(*Context) (any, error) { return unregisteredResult{X: 1}, nil }

func init() { Register(tbadResult{}) }

// A remotely executed task whose result type is not registered must
// surface as an error on the spawner's future — never a silent drop
// that leaves the owner waiting forever.
func TestUnencodableResultSurfacesAsError(t *testing.T) {
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 2})
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	a := nodes[0]

	// Pin A's worker inside the gate so the bad job can only be stolen
	// and executed by the other node, forcing its result over the wire.
	gate := tgate{Started: make(chan struct{}, 1), Release: make(chan struct{})}
	gateFut := a.Submit(gate)
	<-gate.Started

	fut := a.Submit(tbadResult{})
	done := make(chan struct{})
	go func() { fut.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("spawner hung: unencodable remote result was dropped")
	}
	if _, err := fut.Result(); err == nil {
		t.Fatal("unencodable remote result completed without an error")
	} else {
		t.Logf("spawner saw: %v", err)
	}

	close(gate.Release)
	gateFut.Wait()
}
