package registry

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/wirefmt"
)

// TestWireGolden pins the registry protocol by bytes: one frame of each
// of the six kinds, encoded, must read exactly as committed, and the
// committed bytes must decode back to the value. A layout change fails
// here first and has to be made on purpose (ROADMAP item 5: the wire
// format is pinned by bytes, not by agreement with another codec).
func TestWireGolden(t *testing.T) {
	n0 := NodeInfo{ID: "fs0/00", Cluster: "fs0"}
	n1 := NodeInfo{ID: "fs1/01", Cluster: "fs1"}
	for _, tc := range []struct {
		kind  string
		frame wirefmt.Frame
		fresh wirefmt.Frame
		hex   string
	}{
		{"join", &joinMsg{Info: n0}, &joinMsg{}, "066673302f303003667330"},
		{"join-ack", &joinAck{HeartbeatInterval: 20 * time.Millisecond, Members: []NodeInfo{n0, n1}}, &joinAck{}, "80b4891302066673302f303003667330066673312f303103667331"},
		{"leave", &leaveMsg{ID: n0.ID}, &leaveMsg{}, "066673302f3030"},
		{"hb", &heartbeatMsg{ID: n1.ID}, &heartbeatMsg{}, "066673312f3031"},
		{"event", &eventMsg{Event: Event{Kind: SignalEvent, Node: n1, Signal: "leave"}}, &eventMsg{}, "06066673312f303103667331056c65617665"},
		{"signal-req", &signalReq{To: n1.ID, Signal: "leave"}, &signalReq{}, "066673312f3031056c65617665"},
	} {
		enc, err := tc.frame.AppendWire(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.kind, err)
		}
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%s: encoded bytes changed\n got  %s\n want %s", tc.kind, got, tc.hex)
		}
		want, _ := hex.DecodeString(tc.hex)
		r := wirefmt.NewReader(want)
		if err := tc.fresh.DecodeWire(&r); err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", tc.kind, err)
			continue
		}
		if err := r.Finish(); err != nil {
			t.Errorf("%s: golden bytes leave a tail: %v", tc.kind, err)
		}
		if !reflect.DeepEqual(tc.fresh, tc.frame) {
			t.Errorf("%s: golden bytes decode to %+v, want %+v", tc.kind, tc.fresh, tc.frame)
		}
	}
}
