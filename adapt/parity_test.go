package adapt

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wirefmt/frametest"
)

// The sharded tree's control frames (ISSUE 8): the root's summary
// receipt and its eager post-action reset push.
func TestSummaryAckWireParity(t *testing.T) {
	frametest.Parity[summaryAck, *summaryAck](t, []summaryAck{
		{},
		{Cluster: "c0", Seq: 7, Epoch: 3},
		{Cluster: "grappe-é", Seq: math.MaxUint64, Epoch: 1 << 40, Req: coord.ReqState{
			Nodes:        []core.NodeID{"c0/00", "узел-1"},
			Clusters:     []core.ClusterID{"bad"},
			MinBandwidth: 2e6,
		}},
	})
}

func TestShardResetWireParity(t *testing.T) {
	frametest.Parity[shardReset, *shardReset](t, []shardReset{
		{},
		{Epoch: 5},
		{Epoch: math.MaxUint64, Req: coord.ReqState{
			Nodes:        []core.NodeID{"a/00"},
			Clusters:     []core.ClusterID{"x", "y"},
			MinBandwidth: math.SmallestNonzeroFloat64,
		}},
	})
}

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

func TestSummaryAckWireCorrupt(t *testing.T) {
	ack := summaryAck{Cluster: "c0", Seq: 9, Epoch: 2, Req: coord.ReqState{
		Nodes: []core.NodeID{"c0/01"}, Clusters: []core.ClusterID{"bad"}, MinBandwidth: 1e5,
	}}
	enc, err := ack.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt[summaryAck, *summaryAck](t, enc)
}
