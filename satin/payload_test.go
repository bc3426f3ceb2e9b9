package satin_test

import (
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/satin"
)

// fibCut has the shape of the grid tests' cut-off fib task: two ints
// and a time.Duration, which travels as an int64.
type fibCut struct {
	N, Cutoff int
	Delay     time.Duration
}

func (fibCut) Execute(*satin.Context) (any, error) { return 0, nil }

func init() { satin.Register(fibCut{}) }

// TestPayloadRoundTrip holds the payload codec to every task and result
// type the applications register, every basic kind, nil, and a
// tfibCut-shaped task: each value decodes, from exactly the bytes its
// encoding took, to a value deeply equal to itself. An empty slice
// decodes as nil, as in every control codec.
func TestPayloadRoundTrip(t *testing.T) {
	dist := [][]float64{{0, 1.5, 2}, {1.5, 0, math.Inf(1)}, {2, math.Inf(1), 0}}
	for _, tc := range []struct {
		name     string
		in, want any
	}{
		{name: "nil"},
		{name: "bool", in: true},
		{name: "int", in: math.MinInt},
		{name: "int8", in: int8(math.MinInt8)},
		{name: "int16", in: int16(math.MaxInt16)},
		{name: "int32", in: int32(-7)},
		{name: "int64", in: int64(math.MaxInt64)},
		{name: "uint", in: uint(math.MaxUint)},
		{name: "uint8", in: uint8(255)},
		{name: "uint16", in: uint16(math.MaxUint16)},
		{name: "uint32", in: uint32(math.MaxUint32)},
		{name: "uint64", in: uint64(math.MaxUint64)},
		{name: "float32", in: float32(-math.MaxFloat32)},
		{name: "float64", in: math.Inf(-1)},
		{name: "string", in: "узел/θ-7 日本語"},
		{name: "empty string", in: ""},
		{name: "[]int", in: []int{-1, 0, math.MaxInt}},
		{name: "[]byte", in: []byte("\x00\xff")},
		{name: "[]float64", in: []float64{0.5, -0}},
		{name: "[]string", in: []string{"", "a", "ü"}},
		{name: "empty []int", in: []int{}, want: []int(nil)},
		{name: "tfibCut shape", in: fibCut{N: 20, Cutoff: 12, Delay: 3 * time.Millisecond}},
		{name: "Fib", in: apps.Fib{N: 32, SeqCutoff: 12, LeafDelay: -time.Nanosecond}},
		{name: "NQueens", in: apps.NQueens{N: 14, Row: 3, Cols: 0b1011, Diag1: math.MaxUint32, Diag2: 1, SpawnDepth: 5}},
		{name: "Integrate", in: apps.Integrate{Fn: "sin", A: -1, B: math.Pi, Eps: 1e-9, MaxDepth: 40, Depth: 2}},
		{name: "BHForces", in: apps.BHForces{Bodies: []apps.Body{{X: 1, VY: -2, Mass: 3}, {Z: math.SmallestNonzeroFloat64}}, Lo: 0, Hi: 2, Theta: .5, Grain: 1}},
		{name: "Knapsack", in: apps.Knapsack{Weights: []int{3, 4}, Values: []int{5, 6}, Capacity: 7, Index: 1, Value: 5, Weight: 3, Best: 9, SpawnDepth: 2}},
		{name: "TSP", in: apps.TSP{Dist: dist, Path: []int{0, 2}, Cost: 2, UpperBound: math.MaxFloat64, SpawnDepth: 3}},
		{name: "StreamWindow", in: apps.StreamWindow{Items: 64, WorkPerItem: time.Millisecond, Grain: 4}},
		{name: "TourResult", in: apps.TourResult{Cost: 3.5, Path: []int{0, 1, 2, 0}}},
		{name: "[]Accel", in: []apps.Accel{{AX: 1, AY: -1, AZ: 1e300}, {}}},
		{name: "empty BHForces bodies", in: apps.BHForces{Bodies: []apps.Body{}, Theta: 1}, want: apps.BHForces{Theta: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			if want == nil {
				want = tc.in
			}
			b, err := satin.EncodePayload(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := satin.DecodePayload(b)
			if err != nil {
				t.Fatalf("decode of %x: %v", b, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %#v, want %#v", got, want)
			}
		})
	}
}

// TestAppPayloadFingerprints pins the fingerprint, the 8 bytes after
// the presence byte, of every payload type the applications register.
// It hashes the type's name and field layout, so a renamed, added or
// reordered field changes what a peer accepts and fails here first.
func TestAppPayloadFingerprints(t *testing.T) {
	for _, tc := range []struct {
		v  any
		fp string
	}{
		{apps.Fib{}, "0a90bf3bcc30afc9"},
		{apps.NQueens{}, "b132d50918c149cd"},
		{apps.Integrate{}, "b829547823c93410"},
		{apps.BHForces{}, "7b1469d0037a6e83"},
		{apps.Knapsack{}, "3e0c2da04dce1430"},
		{apps.TSP{}, "0157d2f50451d90e"},
		{apps.StreamWindow{}, "360e222294199908"},
		{apps.TourResult{}, "0fc57189d8cb8476"},
		{[]apps.Accel{}, "5ed11bc7de1e72a2"},
	} {
		b, err := satin.EncodePayload(tc.v)
		if err != nil {
			t.Fatalf("%T: %v", tc.v, err)
		}
		if got := hex.EncodeToString(b[1:9]); got != tc.fp {
			t.Errorf("%T: fingerprint %s, want %s", tc.v, got, tc.fp)
		}
	}
}

// Register refuses, naming the field, a type the codec cannot carry:
// a map, a chan, an interface or a pointer anywhere in its exported
// fields, or a field of the type's own type.
type (
	withMap       struct{ M map[string]int }
	withChan      struct{ Done chan struct{} }
	inner         struct{ V any }
	withInterface struct {
		N  int
		In []inner
	}
	withPointer struct{ P *int }
	tree        struct {
		V    int
		Kids []tree
	}
)

func (withMap) Execute(*satin.Context) (any, error)       { return nil, nil }
func (withChan) Execute(*satin.Context) (any, error)      { return nil, nil }
func (withInterface) Execute(*satin.Context) (any, error) { return nil, nil }

func TestRegisterRefusesUncarriedKinds(t *testing.T) {
	for _, tc := range []struct {
		register func()
		field    string
		why      string
	}{
		{func() { satin.Register(withMap{}) }, "satin_test.withMap.M", "kind map"},
		{func() { satin.Register(withChan{}) }, "satin_test.withChan.Done", "kind chan"},
		{func() { satin.Register(withInterface{}) }, "satin_test.withInterface.In[].V", "kind interface"},
		{func() { satin.RegisterValue(withPointer{}) }, "satin_test.withPointer.P", "kind ptr"},
		{func() { satin.RegisterValue(tree{}) }, "satin_test.tree.Kids[]", "its own type"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.field) || !strings.Contains(msg, tc.why) {
					t.Errorf("Register panicked with %q, want %s named with %q", msg, tc.field, tc.why)
				}
			}()
			tc.register()
		}()
	}
	if _, err := satin.EncodePayload(withMap{}); err == nil {
		t.Error("a refused type encodes")
	}
}
