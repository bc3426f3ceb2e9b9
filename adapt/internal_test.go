package adapt

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// TestClusterSummaryStreamAggregatesOverWire pins ISSUE 9's stream
// plumbing at the adapt layer: the "cluster-summary" frame this package
// registers must carry the streaming aggregates through a real wire
// round trip — envelope, binary codec, typed dispatch — byte-exact.
// (The decision sequences both objectives produce from these aggregates
// are pinned flat-vs-sharded by internal/coord's parity suite.)
func TestClusterSummaryStreamAggregatesOverWire(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	epA, err := fab.Endpoint("parity-sender")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := fab.Endpoint("parity-receiver")
	if err != nil {
		t.Fatal(err)
	}
	wcA, wcB := wire.New(epA), wire.New(epB)
	defer wcA.Close()
	defer wcB.Close()
	got := make(chan coord.ClusterSummary, 1)
	wire.Handle(wcB, func(sum coord.ClusterSummary, _ wire.Meta) { got <- sum })

	want := coord.ClusterSummary{
		Cluster: "ca", Seq: 4, Epoch: 2, Time: 12.5, Nodes: 3, Stats: 3,
		SpeedMax: 100, SpeedMin: 50, WorkSum: 120, EffSum: 1.2, SpeedSum: 250,
		HasStream: true, StreamArrived: 33, StreamCompleted: 31,
		StreamLatencySum: 14.75, StreamBacklog: 6,
	}
	if err := wire.Send(wcA, "parity-receiver", want); err != nil {
		t.Fatal(err)
	}
	select {
	case sum := <-got:
		if !reflect.DeepEqual(sum, want) {
			t.Fatalf("stream aggregates mangled in flight:\n got %+v\nwant %+v", sum, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cluster-summary frame never arrived")
	}
}

type noProvisioner struct{}

func (noProvisioner) Provision(int, float64, func(NodeID, ClusterID) bool) int { return 0 }

// TestRootSendFailuresCounted: a receipt or a reset the root cannot
// hand to the fabric makes a sub count a miss (or keep stale reports a
// period longer); the root side must leave its own trace of it.
func TestRootSendFailuresCounted(t *testing.T) {
	fab := transport.NewInProc(nil)
	defer fab.Close()
	if _, err := registry.NewServer(fab, registry.Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := Start(fab, noProvisioner{}, Config{Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	acks := obs.Default.Counter("adapt/ack_send_failures")
	resets := obs.Default.Counter("adapt/reset_send_failures")
	acksBefore, resetsBefore := acks.Value(), resets.Value()

	c.root.onSummary(coord.ClusterSummary{Cluster: "gone"}, wire.Meta{From: SubEndpointName("gone")})
	if got := acks.Value() - acksBefore; got != 1 {
		t.Errorf("ack to a vanished sub: adapt/ack_send_failures moved by %d, want 1", got)
	}
	c.root.pushReset(coord.ShardReset{Epoch: 1}) // "gone" is on the root's list since its summary
	if got := resets.Value() - resetsBefore; got != 1 {
		t.Errorf("reset to a vanished sub: adapt/reset_send_failures moved by %d, want 1", got)
	}
}

// TestRootClaimIsTheElectionLock: startRoot's claim on the coordinator
// endpoint is what keeps two elected subs from both becoming root, so
// it has to hold on every fabric: of two simultaneous claimants exactly
// one wins, and the name is there for a successor once the winner dies.
func TestRootClaimIsTheElectionLock(t *testing.T) {
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	inproc := transport.NewInProc(nil)
	defer inproc.Close()
	for _, tc := range []struct {
		name string
		fab  transport.Fabric
	}{
		{"InProc", inproc},
		{"TCP", transport.NewTCP(hub.Addr())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			claimant := func() *Coordinator {
				return &Coordinator{f: tc.fab}
			}
			rivals := []*Coordinator{claimant(), claimant()}
			errs := make(chan error, len(rivals))
			for _, c := range rivals {
				go func() { errs <- c.startRoot(nil) }()
			}
			won := 0
			for range rivals {
				if <-errs == nil {
					won++
				}
			}
			if won != 1 {
				t.Fatalf("%d of 2 simultaneous claimants became root, want exactly 1", won)
			}
			for _, c := range rivals {
				if c.root != nil {
					c.root.kill()
				}
			}
			successor := claimant()
			if err := successor.startRoot(nil); err != nil {
				t.Fatalf("claim after the root died: %v", err)
			}
			successor.root.kill()
		})
	}
}
