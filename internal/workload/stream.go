// Streaming-pipeline workloads (ISSUE 9). Where Spec describes the
// paper's barrier-synchronised divide-and-conquer iterations, a
// StreamSpec describes the first non-batch workload class: an open-loop
// source emits items at a fixed rate into a linear pipeline of stages,
// each item pays per-stage service time on whichever node picks it up,
// and the figure of merit is the end-to-end latency against an SLO —
// not the efficiency of a fixed work budget. The adaptation objective
// for this class is core.StreamSLO; the spec itself stays policy-free,
// exactly as Spec never tells the batch objective anything.
package workload

import "fmt"

// StreamStage is one stage of a streaming pipeline.
type StreamStage struct {
	Name string
	// WorkPerItem is the stage's service demand per item in
	// speed-seconds (execution time on a speed-1 processor).
	WorkPerItem float64
	// BytesPerItem is the payload an item carries INTO this stage: the
	// transfer a node pays when it picks the item up from the previous
	// stage's queue across a network boundary.
	BytesPerItem float64
}

// StreamSpec describes an open-loop streaming pipeline.
type StreamSpec struct {
	Name string

	// Stages is the linear pipeline, in order. Every item traverses all
	// stages.
	Stages []StreamStage

	// RateHz is the open-loop arrival rate in items per second. The
	// source does not slow down when the pipeline falls behind — that is
	// what makes latency an adaptation signal rather than a constant.
	RateHz float64

	// Items is the total number of items the source emits (the run
	// drains the pipeline after the last one).
	Items int

	// TargetLatency is the end-to-end latency SLO in seconds an item
	// should spend from arrival to leaving the last stage.
	TargetLatency float64
}

// Validate checks the spec is runnable.
func (s StreamSpec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("stream %q: no stages", s.Name)
	}
	for i, st := range s.Stages {
		if st.WorkPerItem <= 0 {
			return fmt.Errorf("stream %q: stage %d (%s) work per item %v must be positive",
				s.Name, i, st.Name, st.WorkPerItem)
		}
		if st.BytesPerItem < 0 {
			return fmt.Errorf("stream %q: stage %d (%s) negative bytes per item",
				s.Name, i, st.Name)
		}
	}
	if s.RateHz <= 0 {
		return fmt.Errorf("stream %q: arrival rate %v must be positive", s.Name, s.RateHz)
	}
	if s.Items <= 0 {
		return fmt.Errorf("stream %q: item count %d must be positive", s.Name, s.Items)
	}
	if s.TargetLatency <= 0 {
		return fmt.Errorf("stream %q: target latency %v must be positive", s.Name, s.TargetLatency)
	}
	return nil
}

// ItemWork is the total service demand of one item across all stages,
// in speed-seconds.
func (s StreamSpec) ItemWork() float64 {
	var w float64
	for _, st := range s.Stages {
		w += st.WorkPerItem
	}
	return w
}

// Pipeline3 returns the calibrated three-stage reference pipeline the
// streaming experiments use: decode → transform → encode, with the
// middle stage dominating. At the default 4 items/s the offered load is
// 6 speed-seconds per second, so ~8–10 speed-1 nodes hold the mean
// end-to-end latency comfortably inside the 5 s target while a single
// saturated node visibly violates it — the dynamic range the SLO
// objective needs.
func Pipeline3(rateHz float64, items int) StreamSpec {
	if rateHz <= 0 {
		rateHz = 4
	}
	if items <= 0 {
		items = 200
	}
	return StreamSpec{
		Name: "pipeline3",
		Stages: []StreamStage{
			{Name: "decode", WorkPerItem: 0.3, BytesPerItem: 256 << 10},
			{Name: "transform", WorkPerItem: 0.9, BytesPerItem: 128 << 10},
			{Name: "encode", WorkPerItem: 0.3, BytesPerItem: 128 << 10},
		},
		RateHz:        rateHz,
		Items:         items,
		TargetLatency: 5,
	}
}
