package workload

import (
	"math"
	"testing"
)

func TestStreamSpecValidate(t *testing.T) {
	good := Pipeline3(4, 200)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	stage := StreamStage{Name: "s", WorkPerItem: 1}
	bad := []StreamSpec{
		{RateHz: 1, Items: 1, TargetLatency: 1},
		{Stages: []StreamStage{{Name: "s", WorkPerItem: 0}}, RateHz: 1, Items: 1, TargetLatency: 1},
		{Stages: []StreamStage{{Name: "s", WorkPerItem: 1, BytesPerItem: -1}}, RateHz: 1, Items: 1, TargetLatency: 1},
		{Stages: []StreamStage{stage}, RateHz: 0, Items: 1, TargetLatency: 1},
		{Stages: []StreamStage{stage}, RateHz: 1, Items: 0, TargetLatency: 1},
		{Stages: []StreamStage{stage}, RateHz: 1, Items: 1, TargetLatency: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid stream spec accepted: %+v", i, s)
		}
	}
}

func TestStreamSpecDerived(t *testing.T) {
	s := Pipeline3(4, 200)
	if w := s.ItemWork(); math.Abs(w-1.5) > 1e-12 {
		t.Errorf("item work = %v, want 1.5", w)
	}
	if d := s.Demand(); math.Abs(d-6) > 1e-12 {
		t.Errorf("demand = %v, want 6 speed-seconds/s", d)
	}
}

func TestPipeline3Defaults(t *testing.T) {
	s := Pipeline3(0, 0)
	if s.RateHz != 4 || s.Items != 200 {
		t.Errorf("defaults: rate %v items %d", s.RateHz, s.Items)
	}
	if len(s.Stages) != 3 {
		t.Errorf("stages = %d", len(s.Stages))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
