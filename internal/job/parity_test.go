package job

import (
	"math"
	"testing"
	"time"

	"repro/internal/wirefmt/frametest"
	"repro/internal/workload"
)

// TestWireParity holds all ten job-service kinds to the value they were
// encoded from, over zero values, max integers, negative sizes, unicode
// strings, nil, empty and populated maps and slices.
func TestWireParity(t *testing.T) {
	frametest.RoundTrip[PingRequest, *PingRequest](t, []PingRequest{{}, {Token: ^uint64(0)}})
	frametest.RoundTrip[PingReply, *PingReply](t, []PingReply{{}, {Token: 1}})
	frametest.RoundTrip[SubmitRequest, *SubmitRequest](t, []SubmitRequest{
		{},
		{Token: 7, Spec: Spec{App: "fib", Size: 30, Iters: 3, MinNodes: 2, MaxNodes: 8, Weight: 1.5, Adapt: true, Period: 2 * time.Second}},
		{Token: ^uint64(0), Spec: Spec{
			App: "nqueens-ü", Size: math.MaxInt32, Iters: -1,
			Period: -time.Hour,
			Shape:  map[string]float64{"c0": 1e6, "grappe-é": 0.5},
			Load:   map[string]float64{},
		}},
		{Token: 8, Spec: Spec{
			Class: "stream", Adapt: true, MinNodes: 4,
			Stream: &workload.StreamSpec{
				Name: "pipeline-π",
				Stages: []workload.StreamStage{
					{Name: "decode", WorkPerItem: 0.3, BytesPerItem: 256 << 10},
					{Name: "encode", WorkPerItem: math.SmallestNonzeroFloat64},
				},
				RateHz: 4, Items: math.MaxInt32, TargetLatency: 5,
			},
		}},
		{Token: 9, Spec: Spec{
			Class:  "stream",
			Stream: &workload.StreamSpec{}, // invalid, but the codec must not care
		}},
	})
	frametest.RoundTrip[SubmitReply, *SubmitReply](t, []SubmitReply{
		{},
		{Token: 1, ID: "job-0001", Err: "недопустимый spec"},
	})
	frametest.RoundTrip[StatusRequest, *StatusRequest](t, []StatusRequest{{}, {Token: 2, ID: "job-0002"}})
	frametest.RoundTrip[StatusReply, *StatusReply](t, []StatusReply{
		{},
		{Token: 3, Jobs: []JobStatus{}},
		{Token: 4, Jobs: []JobStatus{
			{ID: "job-1", App: "tsp", Size: 12, Iters: 1, State: "running", Nodes: 5, Done: 0, Seconds: 1.5},
			{ID: "job-2", App: "fib", State: "failed", Err: "boom"},
			{ID: "job-3", Class: "stream", State: "running", Nodes: 6, Done: 40},
		}, Err: ""},
	})
	frametest.RoundTrip[CancelRequest, *CancelRequest](t, []CancelRequest{{}, {Token: 5, ID: "job-5"}})
	frametest.RoundTrip[CancelReply, *CancelReply](t, []CancelReply{{}, {Token: 6, Err: "unknown job"}})
	frametest.RoundTrip[ResultRequest, *ResultRequest](t, []ResultRequest{{}, {Token: 7, ID: "job-7", Wait: true}})
	frametest.RoundTrip[ResultReply, *ResultReply](t, []ResultReply{
		{},
		{Token: 8, ID: "job-8", State: "done", Result: "832040", Check: "ok",
			Iterations: []float64{1.25, 2.5, math.Inf(1)}, Learned: "minBW=1e6"},
		{Token: 9, Iterations: []float64{}},
	})
}

// jobGolden is one frame of each job-service kind, a submit of each
// class, with its committed bytes; FuzzJobFrames seeds from it.
var jobGolden = []frametest.Row{
	{Frame: &PingRequest{Token: ^uint64(0)}, Hex: "ffffffffffffffffff01"},
	{Frame: &PingReply{Token: 1}, Hex: "01"},
	{Frame: &SubmitRequest{Token: 7, Spec: Spec{App: "fib", Size: 24, Iters: 3, MinNodes: 2, MaxNodes: 4, Weight: 1,
		Adapt: true, Period: time.Second, Shape: map[string]float64{"fs1": 5000}, Load: map[string]float64{"fs0": 3}}}, Hex: "070366696230060408000000000000f03f0180a8d6b907010103667331000000000088b34001010366733000000000000008400000"},
	{Frame: &SubmitRequest{Token: 8, Spec: Spec{Class: "stream", Adapt: true, MinNodes: 4, Stream: &workload.StreamSpec{
		Name: "pipe", Stages: []workload.StreamStage{{Name: "decode", WorkPerItem: 0.05, BytesPerItem: 256}, {Name: "encode", WorkPerItem: 0.15}},
		RateHz: 4, Items: 100, TargetLatency: 5}}}, Hex: "0800000008000000000000000000010000000673747265616d01047069706502066465636f64659a9999999999a93f000000000000704006656e636f6465333333333333c33f00000000000000000000000000001040c8010000000000001440"},
	{Frame: &SubmitReply{Token: 7, ID: "job-001", Err: "unknown app \"sort\""}, Hex: "07076a6f622d30303112756e6b6e6f776e206170702022736f727422"},
	{Frame: &StatusRequest{Token: 9, ID: "job-é"}, Hex: "09066a6f622dc3a9"},
	{Frame: &StatusReply{Token: 10, Jobs: []JobStatus{
		{ID: "job-001", App: "fib", Size: 24, Iters: 3, State: "running", Nodes: 4, Done: 1, Seconds: 0.25},
		{ID: "job-002", Class: "stream", Size: -1, State: "failed", Seconds: math.Inf(1), Err: "iteration 0: node stopped"},
	}, Err: "partial"}, Hex: "0a02076a6f622d303031036669620030060772756e6e696e670802000000000000d03f00076a6f622d303032000673747265616d0100066661696c65640000000000000000f07f19697465726174696f6e20303a206e6f64652073746f70706564077061727469616c"},
	{Frame: &CancelRequest{Token: 11, ID: "job-002"}, Hex: "0b076a6f622d303032"},
	{Frame: &CancelReply{Token: 12, Err: "unknown job"}, Hex: "0c0b756e6b6e6f776e206a6f62"},
	{Frame: &ResultRequest{Token: 13, ID: "job-001", Wait: true}, Hex: "0d076a6f622d30303101"},
	{Frame: &ResultReply{Token: 14, ID: "job-001", State: "done", Result: "46368", Check: "ok",
		Iterations: []float64{0.5, 5e-324}, Learned: "min bw 0", Err: "e"}, Hex: "0e076a6f622d30303104646f6e65053436333638026f6b02000000000000e03f0100000000000000086d696e20627720300165"},
}

// TestWireGolden pins the job-service protocol by bytes.
func TestWireGolden(t *testing.T) { frametest.Golden(t, jobGolden) }

// TestWireCorrupt: a truncated job-service frame fails cleanly and a
// flipped byte never panics the decoder.
func TestWireCorrupt(t *testing.T) { frametest.Corrupt(t, jobGolden) }
