package registry

import (
	"testing"
	"time"

	"repro/internal/wirefmt/frametest"
)

// TestWireParity holds every registry kind to the value it was encoded
// from, over zero values, unicode IDs, empty and populated member lists.
func TestWireParity(t *testing.T) {
	uni := NodeInfo{ID: "узел/α-1", Cluster: "grappe-é"}
	frametest.RoundTrip[joinMsg, *joinMsg](t, []joinMsg{
		{},
		{Info: NodeInfo{ID: "n0", Cluster: "c0"}},
		{Info: uni},
	})
	frametest.RoundTrip[joinAck, *joinAck](t, []joinAck{
		{},
		{Members: []NodeInfo{}},
		{Members: []NodeInfo{{ID: "n0", Cluster: "c0"}, uni}},
		{HeartbeatInterval: 200 * time.Millisecond, Members: []NodeInfo{{ID: "n0", Cluster: "c0"}}},
	})
	frametest.RoundTrip[leaveMsg, *leaveMsg](t, []leaveMsg{{}, {ID: uni.ID}})
	frametest.RoundTrip[heartbeatMsg, *heartbeatMsg](t, []heartbeatMsg{{}, {ID: "n0"}})
	frametest.RoundTrip[eventMsg, *eventMsg](t, []eventMsg{
		{},
		{Event: Event{Kind: Joined, Node: uni}},
		{Event: Event{Kind: SignalEvent, Node: NodeInfo{ID: "n1", Cluster: "c1"}, Signal: "leave"}},
		{Event: Event{Kind: EventKind(-5), Signal: "future-kind"}},
	})
	frametest.RoundTrip[signalReq, *signalReq](t, []signalReq{
		{},
		{To: uni.ID, Signal: "leave"},
	})
}

// registryGolden is one frame of each of the six registry kinds, with
// its committed bytes.
var registryGolden = []frametest.Row{
	{Frame: &joinMsg{Info: NodeInfo{ID: "fs0/00", Cluster: "fs0"}}, Hex: "066673302f303003667330"},
	{Frame: &joinAck{HeartbeatInterval: 20 * time.Millisecond, Members: []NodeInfo{{ID: "fs0/00", Cluster: "fs0"}, {ID: "fs1/01", Cluster: "fs1"}}}, Hex: "80b4891302066673302f303003667330066673312f303103667331"},
	{Frame: &leaveMsg{ID: "fs0/00"}, Hex: "066673302f3030"},
	{Frame: &heartbeatMsg{ID: "fs1/01"}, Hex: "066673312f3031"},
	{Frame: &eventMsg{Event: Event{Kind: SignalEvent, Node: NodeInfo{ID: "fs1/01", Cluster: "fs1"}, Signal: "leave"}}, Hex: "06066673312f303103667331056c65617665"},
	{Frame: &signalReq{To: "fs1/01", Signal: "leave"}, Hex: "066673312f3031056c65617665"},
}

// TestWireGolden pins the registry protocol by bytes.
func TestWireGolden(t *testing.T) { frametest.Golden(t, registryGolden) }

// TestWireCorrupt: a truncated registry frame fails cleanly and a
// flipped byte never panics the decoder.
func TestWireCorrupt(t *testing.T) { frametest.Corrupt(t, registryGolden) }
