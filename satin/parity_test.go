package satin

import (
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/wirefmt"
	"repro/internal/wirefmt/frametest"
)

// parityTask is a registered task type so Task payloads can round-trip
// through both codecs in the parity suite.
type parityTask struct {
	N     int
	Label string
}

func (p parityTask) Execute(*Context) (any, error) { return p.N, nil }

func init() {
	Register(parityTask{})
	gob.Register("")
	gob.Register(0)
}

// TestWireParity is the ISSUE 7 golden suite for the runtime protocol:
// every registered control-frame kind, encoded by the binary codec and
// by a fresh gob session, must decode to identical values across an
// edge-case table (zero values, max integers, unicode IDs, empty
// slices, absent payloads).
func TestWireParity(t *testing.T) {
	uni := NodeID("узел/θ-7")
	frametest.Parity[stealMsg, *stealMsg](t, []stealMsg{
		{},
		{Thief: "n0", Cluster: "c0", Seq: 1},
		{Thief: uni, Cluster: "grappe-é", Seq: ^uint64(0)},
	})
	frametest.Parity[stealReplyMsg, *stealReplyMsg](t, []stealReplyMsg{
		{},
		{Seq: 7, HasJob: false},
		{Seq: ^uint64(0), HasJob: true, Job: jobMsg{ID: 42, Owner: uni, Task: parityTask{N: -3, Label: "日本語"}}},
	})
	frametest.Parity[resultMsg, *resultMsg](t, []resultMsg{
		{},
		{ID: 9, Value: 123, Err: ""},
		{ID: ^uint64(0), Value: strings.Repeat("x", 300), Err: "boom: перелом"},
		{ID: 3, Value: nil, Err: "task panic"},
	})
	frametest.Parity[holdingMsg, *holdingMsg](t, []holdingMsg{
		{},
		{ID: ^uint64(0), Holder: uni},
	})
}

// TestWireCorrupt walks every truncation and byte flip of a
// representative encoding of each frame kind through the decoder: no
// panics, no over-reads.
func TestWireCorrupt(t *testing.T) {
	enc := func(f wirefmt.Frame) []byte {
		b, err := f.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frametest.Corrupt[stealMsg, *stealMsg](t, enc(&stealMsg{Thief: "n0", Cluster: "c0", Seq: 77}))
	frametest.Corrupt[stealReplyMsg, *stealReplyMsg](t, enc(&stealReplyMsg{Seq: 2, HasJob: true, Job: jobMsg{ID: 1, Owner: "n1", Task: parityTask{N: 4}}}))
	frametest.Corrupt[resultMsg, *resultMsg](t, enc(&resultMsg{ID: 11, Value: 5, Err: "e"}))
	frametest.Corrupt[holdingMsg, *holdingMsg](t, enc(&holdingMsg{ID: 3, Holder: "n2"}))
	// The wake frame has no body; what a decoder must survive is one
	// that arrives with bytes.
	frametest.Corrupt[wakeMsg, *wakeMsg](t, []byte{0x01, 0xFF})
}

// TestJobMsgRejectsNonTaskPayload: a gob payload that decodes fine but
// is not a Task must fail the frame, not panic a type assertion later.
func TestJobMsgRejectsNonTaskPayload(t *testing.T) {
	b := wirefmt.AppendUvarint(nil, 1)
	b = wirefmt.AppendString(b, "n0")
	var err error
	if b, err = wirefmt.AppendGob(b, "just a string"); err != nil {
		t.Fatal(err)
	}
	var m jobMsg
	r := wirefmt.NewReader(b)
	if err := m.DecodeWire(&r); err == nil {
		t.Fatalf("non-Task payload decoded silently into %+v", m)
	}
	if m.Task != nil {
		t.Fatalf("rejected payload left Task set: %#v", m.Task)
	}
}
