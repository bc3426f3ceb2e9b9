package satin

import (
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/transport"
)

// The runtime over real TCP sockets: a hub, a registry and three nodes
// exchanging encoded jobs and results through the loopback
// interface — the deployment mode for nodes in separate processes.
func TestSatinOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	fab := transport.NewTCP(hub.Addr())

	srv, err := registry.NewServer(fab, fastReg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var nodes []*Node
	for _, id := range []NodeID{"tcp/00", "tcp/01", "tcp/02"} {
		n, err := StartNode(NodeConfig{
			ID:                id,
			Cluster:           "tcp",
			Fabric:            fab,
			LocalStealTimeout: 200 * time.Millisecond,
			WANStealTimeout:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()

	val, err := nodes[0].Run(tfib{N: 16, Leaf: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(16) {
		t.Fatalf("fib(16) over TCP = %v, want %d", val, fibLeaves(16))
	}
	// Work should have crossed the sockets.
	moved := 0
	for _, n := range nodes[1:] {
		if n.Report().BusySec > 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no work crossed the TCP fabric")
	}
}

// A connection reset mid-message must surface as a node failure — the
// registry declares the victim dead, its orphaned jobs are recomputed —
// never as a hang. The hub kills both of the victim's sockets (work
// protocol and registry heartbeat) with linger disabled, the abrupt
// way a crashed process or a mid-path firewall drops a grid connection.
func TestChaosTCPConnectionReset(t *testing.T) {
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	fab := transport.NewTCP(hub.Addr())

	srv, err := registry.NewServer(fab, fastReg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var nodes []*Node
	for _, id := range []NodeID{"tcp/00", "tcp/01", "tcp/02"} {
		n, err := StartNode(NodeConfig{
			ID:                id,
			Cluster:           "tcp",
			Fabric:            fab,
			LocalStealTimeout: 200 * time.Millisecond,
			WANStealTimeout:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()

	fut := nodes[0].Submit(tfib{N: 18, Leaf: 500 * time.Microsecond})
	time.Sleep(100 * time.Millisecond) // let work spread onto the victim

	// Reset both of tcp/02's connections mid-computation.
	if !hub.DropEndpoint("satin:tcp/02") {
		t.Fatal("victim work endpoint was not connected")
	}
	hub.DropEndpoint("reg:tcp/02")

	done := make(chan struct{})
	go func() {
		fut.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("computation hung after connection reset")
	}
	val, err := fut.Result()
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != fibLeaves(18) {
		t.Fatalf("fib(18) after reset = %v, want %d (lost orphans?)", val, fibLeaves(18))
	}

	// The reset must have surfaced as a node failure: the registry
	// declares tcp/02 dead once its heartbeats stop arriving.
	deadline := time.Now().Add(5 * time.Second)
	for {
		present := false
		for _, m := range srv.Members() {
			if m.ID == "tcp/02" {
				present = true
			}
		}
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registry never declared the reset node dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
