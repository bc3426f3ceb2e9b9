package des

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/workload"
)

// streamParams is a well-provisioned streaming run: offered load 6
// speed-seconds/s on 10 speed-1 nodes, no monitoring.
func streamParams(items int) Params {
	spec := workload.Pipeline3(4, items)
	return Params{
		Topo:    topo.DAS2(),
		Stream:  &spec,
		Seed:    1,
		Initial: []Alloc{{Cluster: "fs0", Count: 10}},
	}
}

// streamAdaptive enables the latency-SLO objective with short periods
// so the coordinator gets enough decisions inside a test-sized run.
func streamAdaptive(p Params) Params {
	p.Mon = DefaultMonitor()
	p.Mon.Period = 30
	p.StreamSLO = &core.StreamSLOConfig{TargetLatency: p.Stream.TargetLatency}
	return p
}

func TestStreamValidate(t *testing.T) {
	good := streamAdaptive(streamParams(100))
	good.Defaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { // two objectives at once
			cfg := core.DefaultConfig()
			p.Adapt = &cfg
		},
		func(p *Params) { p.Stream = nil }, // SLO without a stream
		func(p *Params) { p.Mon.Enabled = false },
		func(p *Params) { p.StreamSLO.TargetLatency = 0 },
		func(p *Params) { p.Stream.RateHz = 0 },
	}
	for i, mutate := range cases {
		p := streamAdaptive(streamParams(100))
		p.Defaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid streaming params accepted", i)
		}
	}
}

// A well-provisioned pipeline completes every item comfortably inside
// the latency target without any coordinator at all.
func TestStreamRunCompletes(t *testing.T) {
	p := streamParams(200)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("streaming run did not complete: %+v", res)
	}
	if res.StreamCompleted != 200 {
		t.Fatalf("completed %d of 200 items", res.StreamCompleted)
	}
	if m := res.MeanStreamLatency(); m <= 0 || m > p.Stream.TargetLatency {
		t.Fatalf("mean latency %.2fs outside (0, %.0fs] on an over-provisioned run", m, p.Stream.TargetLatency)
	}
	if len(res.Iterations) != 0 {
		t.Fatalf("streaming run recorded %d batch iterations", len(res.Iterations))
	}
}

func TestStreamDeterminismSameSeed(t *testing.T) {
	run := func() *Result {
		p := streamAdaptive(streamParams(600))
		p.Initial = []Alloc{{Cluster: "fs0", Count: 4}}
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime || a.StreamLatencySum != b.StreamLatencySum ||
		len(a.Periods) != len(b.Periods) || a.PeakNodes != b.PeakNodes {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// Under-provisioned open-loop pipeline: 4 speed-1 nodes against an
// offered load of 6 speed-seconds/s. Without adaptation the backlog
// (and latency) grows for the whole emission window; with the SLO
// objective the coordinator must grow the allocation and keep latency
// near the target.
func TestStreamAdaptsUnderOverload(t *testing.T) {
	base := streamParams(2000)
	base.Initial = []Alloc{{Cluster: "fs0", Count: 4}}

	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(streamAdaptive(base))
	if err != nil {
		t.Fatal(err)
	}
	if !static.Completed || !adaptive.Completed {
		t.Fatalf("runs did not complete: static %v adaptive %v", static.Completed, adaptive.Completed)
	}
	if adaptive.PeakNodes <= 4 {
		t.Fatalf("SLO objective never grew past the starved allocation (peak %d)", adaptive.PeakNodes)
	}
	if am, sm := adaptive.MeanStreamLatency(), static.MeanStreamLatency(); am >= sm/2 {
		t.Fatalf("adaptation did not help: adaptive mean latency %.1fs vs static %.1fs", am, sm)
	}
	grew := false
	for _, rec := range adaptive.Periods {
		if rec.Action == "add" && rec.Added > 0 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatalf("no grow decision in the period log: %+v", adaptive.Periods)
	}
}

// The same overload scenario through the sharded coordinator tree:
// stream partials ride the ClusterSummary wire, the root judges them.
func TestStreamShardedAdapts(t *testing.T) {
	p := streamAdaptive(streamParams(2000))
	p.Initial = []Alloc{{Cluster: "fs0", Count: 4}}
	p.Sharded = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sharded streaming run did not complete: %+v", res)
	}
	if res.PeakNodes <= 4 {
		t.Fatalf("sharded SLO objective never grew (peak %d)", res.PeakNodes)
	}
	if res.StreamCompleted != 2000 {
		t.Fatalf("completed %d of 2000 items", res.StreamCompleted)
	}
}

// Crashing nodes mid-stream loses no items: in-service items reappear
// at their stage head after detection, paying the fault as latency.
func TestStreamSurvivesCrashes(t *testing.T) {
	p := streamAdaptive(streamParams(800))
	p.Events = []Injection{
		{At: 60, Kind: InjCrash, Cluster: "fs0", Count: 3},
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not survive the crash: %+v", res)
	}
	if res.StreamCompleted != 800 {
		t.Fatalf("items lost to the crash: completed %d of 800", res.StreamCompleted)
	}
}

// A graceful shrink (coordinator eviction) must also preserve every
// item: calm periods on an over-provisioned run trigger releases.
func TestStreamShrinksWhenCalm(t *testing.T) {
	p := streamAdaptive(streamParams(2400))
	p.Initial = []Alloc{{Cluster: "fs0", Count: 24}} // 4x the demand
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.StreamCompleted != 2400 {
		t.Fatalf("run incomplete: %+v", res)
	}
	if res.FinalNodes >= 24 {
		t.Fatalf("SLO objective never released idle capacity (final %d)", res.FinalNodes)
	}
}
