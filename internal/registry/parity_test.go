package registry

import (
	"testing"
	"time"

	"repro/internal/wirefmt"
	"repro/internal/wirefmt/frametest"
)

// TestWireParity is the ISSUE 7 golden suite for the registry
// protocol: every registered kind through both codecs over zero
// values, unicode IDs, empty and populated member lists.
func TestWireParity(t *testing.T) {
	uni := NodeInfo{ID: "узел/α-1", Cluster: "grappe-é"}
	frametest.Parity[joinMsg, *joinMsg](t, []joinMsg{
		{},
		{Info: NodeInfo{ID: "n0", Cluster: "c0"}},
		{Info: uni},
	})
	frametest.Parity[joinAck, *joinAck](t, []joinAck{
		{},
		{Members: []NodeInfo{}},
		{Members: []NodeInfo{{ID: "n0", Cluster: "c0"}, uni}},
		{HeartbeatInterval: 200 * time.Millisecond, Members: []NodeInfo{{ID: "n0", Cluster: "c0"}}},
	})
	frametest.Parity[leaveMsg, *leaveMsg](t, []leaveMsg{{}, {ID: uni.ID}})
	frametest.Parity[heartbeatMsg, *heartbeatMsg](t, []heartbeatMsg{{}, {ID: "n0"}})
	frametest.Parity[eventMsg, *eventMsg](t, []eventMsg{
		{},
		{Event: Event{Kind: Joined, Node: uni}},
		{Event: Event{Kind: SignalEvent, Node: NodeInfo{ID: "n1", Cluster: "c1"}, Signal: "leave"}},
		{Event: Event{Kind: EventKind(-5), Signal: "future-kind"}},
	})
	frametest.Parity[signalReq, *signalReq](t, []signalReq{
		{},
		{To: uni.ID, Signal: "leave"},
	})
}

func TestWireCorrupt(t *testing.T) {
	enc := func(f wirefmt.Frame) []byte {
		b, err := f.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frametest.Corrupt[joinAck, *joinAck](t, enc(&joinAck{HeartbeatInterval: 20 * time.Millisecond, Members: []NodeInfo{{ID: "n0", Cluster: "c0"}, {ID: "n1", Cluster: "c1"}}}))
	frametest.Corrupt[eventMsg, *eventMsg](t, enc(&eventMsg{Event: Event{Kind: Died, Node: NodeInfo{ID: "n0", Cluster: "c0"}, Signal: "s"}}))
	frametest.Corrupt[heartbeatMsg, *heartbeatMsg](t, enc(&heartbeatMsg{ID: "n0"}))
}
