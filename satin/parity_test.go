package satin

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wirefmt"
	"repro/internal/wirefmt/frametest"
)

// parityTask is a registered task type, so a steal reply can carry one
// in the round-trip and golden suites.
type parityTask struct {
	N     int
	Label string
}

func (p parityTask) Execute(*Context) (any, error) { return p.N, nil }

func init() { Register(parityTask{}) }

// TestWireParity holds every runtime control-frame kind to the value it
// was encoded from, over zero values, max integers, unicode IDs, absent
// and present payloads.
func TestWireParity(t *testing.T) {
	uni := NodeID("узел/θ-7")
	frametest.RoundTrip[stealMsg, *stealMsg](t, []stealMsg{
		{},
		{Thief: "n0", Cluster: "c0", Seq: 1},
		{Thief: uni, Cluster: "grappe-é", Seq: ^uint64(0)},
	})
	frametest.RoundTrip[stealReplyMsg, *stealReplyMsg](t, []stealReplyMsg{
		{},
		{Seq: 7, HasJob: false},
		{Seq: ^uint64(0), HasJob: true, Job: jobMsg{ID: 42, Owner: uni, Task: parityTask{N: -3, Label: "日本語"}}},
	})
	frametest.RoundTrip[resultMsg, *resultMsg](t, []resultMsg{
		{},
		{ID: 3, Value: nil, Err: "task panic"},
		{ID: 9, Value: 123, Err: ""},
		{ID: ^uint64(0), Value: strings.Repeat("x", 300), Err: "boom: перелом"},
	})
	frametest.RoundTrip[holdingMsg, *holdingMsg](t, []holdingMsg{
		{},
		{ID: ^uint64(0), Holder: uni},
	})
	frametest.RoundTrip[wakeMsg, *wakeMsg](t, []wakeMsg{{}})
}

// satinGolden is one frame of each runtime kind, with its committed
// bytes; the steal reply's task pins parityTask's payload fingerprint.
var satinGolden = []frametest.Row{
	{Frame: &stealMsg{Thief: "fs0/01", Cluster: "fs0", Seq: 77}, Hex: "066673302f3031036673304d"},
	{Frame: &stealReplyMsg{Seq: 2, HasJob: true, Job: jobMsg{ID: 1, Owner: "fs1/00", Task: parityTask{N: 4, Label: "é"}}}, Hex: "020101066673312f3030010faa45ee50f508e80802c3a9"},
	{Frame: &resultMsg{ID: 11, Value: 5, Err: "e"}, Hex: "0b012ac6a92bca4037f00a0165"},
	{Frame: &holdingMsg{ID: 3, Holder: "fs0/02"}, Hex: "03066673302f3032"},
	{Frame: &wakeMsg{}, Hex: ""},
}

// TestWireGolden pins the runtime protocol by bytes.
func TestWireGolden(t *testing.T) { frametest.Golden(t, satinGolden) }

// TestWireCorrupt: a truncated runtime frame fails cleanly and a
// flipped byte never panics the decoder. The wake frame has no body,
// so the bytes a corrupt one arrives with are a tail the frame check
// refuses.
func TestWireCorrupt(t *testing.T) {
	frametest.Corrupt(t, satinGolden)
	var m wakeMsg
	r := wirefmt.NewReader([]byte{0x01, 0xFF})
	if err := m.DecodeWire(&r); err != nil {
		t.Fatalf("wake decode: %v", err)
	}
	if err := r.Finish(); !errors.Is(err, wirefmt.ErrMalformed) {
		t.Fatalf("wake frame with 2 trailing bytes finished with %v, want a malformed-frame error", err)
	}
}

// TestJobMsgRejectsNonTaskPayload: a payload that decodes fine but is
// not a Task must fail the frame, not panic a type assertion later.
func TestJobMsgRejectsNonTaskPayload(t *testing.T) {
	b := wirefmt.AppendUvarint(nil, 1)
	b = wirefmt.AppendString(b, "n0")
	var err error
	if b, err = appendPayload(b, "just a string"); err != nil {
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

// A steal reply with its task and the result that comes back for it,
// both encoded and decoded, allocate at most 10 times between them (5
// as written: the owner string, and the task and the result each as a
// fresh value and its interface box).
func TestStealReplyRoundTripAllocs(t *testing.T) {
	reply := stealReplyMsg{Seq: 7, HasJob: true, Job: jobMsg{ID: 42, Owner: "c0/01", Task: tfibCut{N: 20, Cutoff: 12}}}
	result := resultMsg{ID: 42, Value: fibLeaves(20)}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		var gotReply stealReplyMsg
		var gotResult resultMsg
		buf, _ = reply.AppendWire(buf[:0])
		r := wirefmt.NewReader(buf)
		if err := gotReply.DecodeWire(&r); err != nil || gotReply != reply {
			t.Fatalf("reply decoded to %+v, %v", gotReply, err)
		}
		buf, _ = result.AppendWire(buf[:0])
		r = wirefmt.NewReader(buf)
		if err := gotResult.DecodeWire(&r); err != nil || gotResult != result {
			t.Fatalf("result decoded to %+v, %v", gotResult, err)
		}
	})
	if allocs > 10 {
		t.Errorf("reply plus result round trip allocates %.0f times, want at most 10", allocs)
	}
}

// tcollide is registered only inside TestRegisterRefusesCollision.
type tcollide struct{ A int }

// Register refuses a type whose fingerprint another type holds: an
// impostor planted under tcollide's fingerprint makes tcollide's
// registration panic, naming both.
func TestRegisterRefusesCollision(t *testing.T) {
	old := registered.Load()
	defer registered.Store(old)
	fp := fingerprint(reflect.TypeOf(tcollide{}))
	planted := &payloadTypes{byType: old.byType, byFP: map[uint64]*payloadType{fp: {name: "impostor", fp: fp}}}
	registered.Store(planted)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "impostor") || !strings.Contains(msg, "tcollide") {
			t.Errorf("colliding registration panicked with %q", msg)
		}
	}()
	RegisterValue(tcollide{})
}

// tshapes carries every kind the payload codec covers, nested, so the
// fuzzer reaches each decoder branch.
type tshapes struct {
	B    bool
	I8   int8
	U16  uint16
	F32  float32
	S    string
	Xs   []int64
	Grid [][]float64
	Arr  [3]uint8
	In   []tshapeInner
}

type tshapeInner struct {
	Name   string
	Empty  struct{}
	Leaves []struct{ V uint }
}

func init() { RegisterValue(tshapes{}) }

// FuzzTaskPayload drives the payload decoder over arbitrary bytes:
// hostile lengths, unknown fingerprints and truncated fields fail the
// reader, never panic, and allocate in proportion to the input. A
// payload that decodes re-encodes to bytes that decode to the same
// encoding again.
func FuzzTaskPayload(f *testing.F) {
	enc := func(v any) []byte {
		b, err := appendPayload(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	full := enc(tshapes{B: true, I8: -8, U16: 65535, F32: 1.5, S: "ş", Xs: []int64{math.MinInt64, 1},
		Grid: [][]float64{{1}, nil, {2, 3}}, Arr: [3]uint8{1, 2, 3},
		In: []tshapeInner{{Name: "a", Leaves: []struct{ V uint }{{1}, {2}}}, {Name: "b"}}})
	f.Add(full)
	f.Add(full[:len(full)/2]) // truncated field
	f.Add(enc(tfibCut{N: 20, Cutoff: 12, Delay: time.Second}))
	f.Add(enc([]string{"x", "yz"}))
	f.Add(enc(nil))
	f.Add(wirefmt.AppendU64([]byte{1}, 0x0123456789abcdef)) // unknown fingerprint
	hostile := wirefmt.AppendU64([]byte{1}, registered.Load().byType[reflect.TypeOf([]string(nil))].fp)
	f.Add(wirefmt.AppendUvarint(hostile, 1<<60)) // a slice longer than the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var r wirefmt.Reader
		var v any
		// The fewest bytes of three decodes: the fuzzing engine's own
		// goroutines allocate now and then, the decoder the same each time.
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r = wirefmt.NewReader(data)
			v = readPayload(&r)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// A byte of input decodes to at most a slice header and its
		// padding (32 bytes); the top-level value is allocated twice.
		if limit := uint64(64*len(data) + 1024); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if r.Err() != nil {
			if v != nil {
				t.Fatalf("failed decode returned %#v", v)
			}
			return
		}
		once, err := appendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		r = wirefmt.NewReader(once)
		again := readPayload(&r)
		if err := r.Finish(); err != nil {
			t.Fatalf("re-encoding %x does not decode: %v", once, err)
		}
		if twice, _ := appendPayload(nil, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable: %x then %x", once, twice)
		}
	})
}

// The payload decoder refuses, as a malformed frame, an unknown
// fingerprint, a length past the frame's end, a truncated field and a
// value out of its field's range.
func TestPayloadRefusals(t *testing.T) {
	fpOf := func(v any) uint64 { return registered.Load().byType[reflect.TypeOf(v)].fp }
	head := func(v any) []byte { return wirefmt.AppendU64([]byte{1}, fpOf(v)) }
	full, _ := appendPayload(nil, tfibCut{N: 300, Cutoff: 12})
	for name, b := range map[string][]byte{
		"unknown fingerprint": wirefmt.AppendU64([]byte{1}, 0x0123456789abcdef),
		"bad presence byte":   {2},
		"slice past the end":  wirefmt.AppendUvarint(head([]string(nil)), 1<<60),
		"string past the end": wirefmt.AppendUvarint(head(""), 2),
		"truncated field":     full[:len(full)-1],
		"truncated struct":    head(tshapes{}),
		"int8 overflow":       wirefmt.AppendVarint(head(int8(0)), 128),
		"float32 overflow":    wirefmt.AppendF64(head(float32(0)), math.MaxFloat64),
	} {
		r := wirefmt.NewReader(b)
		if v := readPayload(&r); v != nil || !errors.Is(r.Err(), wirefmt.ErrMalformed) {
			t.Errorf("%s: decoded %#v, err %v; want a malformed-frame error", name, v, r.Err())
		}
	}
}
