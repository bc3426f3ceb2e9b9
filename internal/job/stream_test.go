package job

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// fastPipeline is a test-sized stream: two 2ms stages, 100 items at
// 50/s — about two seconds of emission, comfortably parallelizable.
func fastPipeline(items int) workload.StreamSpec {
	return workload.StreamSpec{
		Name: "test-pipeline",
		Stages: []workload.StreamStage{
			{Name: "decode", WorkPerItem: 0.002},
			{Name: "encode", WorkPerItem: 0.002},
		},
		RateHz:        50,
		Items:         items,
		TargetLatency: 2,
	}
}

// TestStreamSubmitValidation: the class switch is strict — malformed
// combinations are rejected at the door.
func TestStreamSubmitValidation(t *testing.T) {
	m := testManager(t, 1, 2, nil)
	p3 := fastPipeline(100)
	bad := p3
	bad.RateHz = 0
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"unknown class", Spec{Class: "interactive", App: "fib", Size: 10}},
		{"stream without spec", Spec{Class: "stream"}},
		{"batch with stream spec", Spec{App: "fib", Size: 10, Stream: &p3}},
		{"invalid stream spec", Spec{Class: "stream", Stream: &bad}},
	} {
		if _, err := m.Submit(tc.spec); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	if _, err := m.Submit(Spec{Class: "stream", Stream: &p3}); err != nil {
		t.Errorf("valid stream spec rejected: %v", err)
	}
}

// TestBatchAndStreamShareOnePool is ISSUE 9's acceptance scenario for
// the service: one batch job and one streaming job run concurrently
// over the same shared pool, each to a verified result.
func TestBatchAndStreamShareOnePool(t *testing.T) {
	m := testManager(t, 2, 2, nil) // capacity 4
	batch, err := m.Submit(Spec{App: "fib", Size: 12, Iters: 2, MinNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p3 := fastPipeline(100)
	stream, err := m.Submit(Spec{Class: "stream", Stream: &p3, MinNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, batch, 30*time.Second)
	waitTerminal(t, stream, 30*time.Second)
	// Both must have run at once — side by side, not serialized: each
	// entered Running before the other became terminal.
	bStart, bEnd := batch.runSpan()
	sStart, sEnd := stream.runSpan()
	if bStart.IsZero() || sStart.IsZero() || bStart.After(sEnd) || sStart.After(bEnd) {
		t.Fatalf("jobs not concurrent: batch ran %v–%v, stream %v–%v",
			bStart.Format(time.StampMicro), bEnd.Format(time.StampMicro),
			sStart.Format(time.StampMicro), sEnd.Format(time.StampMicro))
	}
	if batch.State() != Done || batch.Result().Check != "ok" {
		t.Fatalf("batch: state %s, check %q, err %q",
			batch.State(), batch.Result().Check, batch.Result().Err)
	}
	r := stream.Result()
	if stream.State() != Done || r.Check != "ok" {
		t.Fatalf("stream: state %s, check %q, err %q", stream.State(), r.Check, r.Err)
	}
	if r.StreamCompleted != 100 {
		t.Fatalf("stream completed %d of 100 items", r.StreamCompleted)
	}
	if r.StreamMeanLatency <= 0 || r.StreamMaxLatency < r.StreamMeanLatency {
		t.Fatalf("implausible latency figures: mean %.3fs max %.3fs",
			r.StreamMeanLatency, r.StreamMaxLatency)
	}
	if len(r.Iterations) == 0 {
		t.Fatal("stream job recorded no windows")
	}
}

// runSpan returns when the job first entered Running and when it became
// terminal (zero while it has not).
func (j *Job) runSpan() (started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started, j.finished
}

// TestStreamJobAdapts: a streaming job submitted with Adapt runs its
// own latency-SLO coordinator (not the batch WAE band) and finishes
// with a period history.
func TestStreamJobAdapts(t *testing.T) {
	m := testManager(t, 2, 2, nil)
	p3 := fastPipeline(150)
	j, err := m.Submit(Spec{Class: "stream", Stream: &p3, MinNodes: 1, Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 60*time.Second)
	r := j.Result()
	if j.State() != Done || r.Check != "ok" {
		t.Fatalf("state %s, check %q, err %q", j.State(), r.Check, r.Err)
	}
	if r.StreamCompleted != 150 {
		t.Fatalf("completed %d of 150 items", r.StreamCompleted)
	}
	if len(r.History) == 0 {
		t.Fatal("adaptive stream job recorded no coordinator periods")
	}
	if r.Learned == "" {
		t.Fatal("adaptive stream job recorded no learned requirements")
	}
}

// TestParseStages covers the stage-spec flag grammar both CLIs share.
func TestParseStages(t *testing.T) {
	stages, err := ParseStages("decode=0.3/262144,transform=0.9,encode=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 || stages[0].Name != "decode" ||
		stages[0].BytesPerItem != 262144 || stages[1].WorkPerItem != 0.9 {
		t.Fatalf("parsed %+v", stages)
	}
	for _, bad := range []string{
		"", "decode", "=0.3", "decode=zero", "decode=0", "decode=-1",
		"decode=0.3/x", "decode=0.3/-5", "decode=0.3,,encode=0.3",
	} {
		if _, err := ParseStages(bad); err == nil {
			t.Errorf("%q: accepted, want error", bad)
		}
	}
}
