package des

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/steal"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	good := baseParams(5)
	good.Defaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Topo = topo.Topology{} },
		func(p *Params) { p.Spec = workload.Spec{} },
		func(p *Params) { p.Initial = nil },
		func(p *Params) { p.Initial = []Alloc{{Cluster: "ghost", Count: 3}} },
		func(p *Params) { p.Initial = []Alloc{{Cluster: "fs0", Count: 0}} },
		func(p *Params) { p.Initial = []Alloc{{Cluster: "fs0", Count: 1000}} },
		func(p *Params) {
			cfg := core.DefaultConfig()
			p.Adapt = &cfg // adaptation without monitoring
		},
		func(p *Params) {
			cfg := core.Config{EMin: 0.9, EMax: 0.1, ClusterDropInterComm: 0.2, MinNodes: 1}
			p.Mon = DefaultMonitor()
			p.Adapt = &cfg
		},
	}
	for i, mutate := range cases {
		p := baseParams(5)
		p.Defaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDefaultsFillZeroes(t *testing.T) {
	var p Params
	p.Defaults()
	if p.MaxTime == 0 || p.Mon.Period == 0 {
		t.Fatalf("defaults incomplete: %+v", p)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() *Result {
		p := baseParams(8)
		p = adaptive(p)
		p.Initial = []Alloc{{Cluster: "fs0", Count: 8}}
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime || len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("same seed diverged: %v vs %v", a.Runtime, b.Runtime)
	}
	if a.Events == 0 || a.Events != b.Events {
		t.Fatalf("events fired = %d and %d, want equal and non-zero", a.Events, b.Events)
	}
	for i := range a.Iterations {
		if a.Iterations[i] != b.Iterations[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, a.Iterations[i], b.Iterations[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p1 := baseParams(8)
	p2 := baseParams(8)
	p2.Seed = 999
	r1, err := Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Runtime == r2.Runtime {
		t.Error("different seeds produced byte-identical runtimes (suspicious)")
	}
}

func TestMaxTimeAborts(t *testing.T) {
	p := baseParams(1000) // would run ~11k virtual seconds
	p.MaxTime = 50
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run past MaxTime claims completion")
	}
	if len(res.Iterations) == 0 || len(res.Iterations) >= 1000 {
		t.Errorf("iterations = %d", len(res.Iterations))
	}
}

func TestMonitorOnlyBenchAccounting(t *testing.T) {
	p := baseParams(20)
	p.Mon = DefaultMonitor()
	cfg := core.DefaultConfig()
	p.Adapt = &cfg
	p.MonitorOnly = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BenchSec <= 0 {
		t.Error("monitor-only run recorded no benchmarking time")
	}
	total := res.BusySec + res.IdleSec + res.IntraSec + res.InterSec + res.BenchSec
	if share := res.BenchSec / total; share <= 0 || share > 0.2 {
		t.Errorf("bench time share = %v", share)
	}
	if res.FinalNodes != 36 {
		t.Errorf("monitor-only changed node count: %d", res.FinalNodes)
	}
	for _, pr := range res.Periods {
		if pr.Action != "" || pr.Added != 0 || pr.Removed != 0 {
			t.Errorf("monitor-only acted: %+v", pr)
		}
	}
}

func TestNodeSecondsAccounting(t *testing.T) {
	p := baseParams(10)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 36 * res.Runtime
	if res.NodeSeconds < want*0.99 || res.NodeSeconds > want*1.01 {
		t.Errorf("node-seconds = %v, want ~%v (36 nodes x runtime)", res.NodeSeconds, want)
	}
}

func TestInjectionTargetsSubset(t *testing.T) {
	p := baseParams(30)
	p = adaptive(p)
	p.MonitorOnly = true // observe without reacting
	p.Events = []Injection{{
		At: 10, Kind: InjSetLoad, Cluster: "fs1", Count: 3, Load: 50,
	}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// With 3 of 36 nodes nearly dead, capacity drops ~8%: iterations
	// slow but nowhere near the full-cluster case.
	slow := res.MeanIterDuration(10, len(res.Iterations))
	base := res.Iterations[0].Duration
	if slow < base {
		t.Logf("note: iterations did not slow (%.1f vs %.1f)", slow, base)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
}

func TestStealRandomPolicyRuns(t *testing.T) {
	p := baseParams(10)
	p.StealPolicy = StealRandom
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("random-stealing run incomplete")
	}
	// CRS should beat uniform random stealing across clusters.
	p2 := baseParams(10)
	crs, err := Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime < crs.Runtime*0.95 {
		t.Errorf("random stealing (%.0fs) substantially beat CRS (%.0fs)?", res.Runtime, crs.Runtime)
	}
}

func TestDisableBlacklistReAddsBadCluster(t *testing.T) {
	mk := func(disable bool) *Result {
		p := baseParams(60)
		p = adaptive(p)
		p.DisableBlacklist = disable
		p.Events = []Injection{{
			At: 1, Kind: InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3,
		}}
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := mk(false)
	without := mk(true)
	if len(with.BlacklistedClusters) == 0 {
		t.Error("blacklist run did not blacklist the bad cluster")
	}
	if len(without.BlacklistedClusters) != 0 {
		t.Error("DisableBlacklist still blacklisted")
	}
	t.Logf("with blacklist: %.0fs; without: %.0fs", with.Runtime, without.Runtime)
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Iterations: []IterRecord{
		{Duration: 10}, {Duration: 20}, {Duration: 30},
	}}
	if m := r.MeanIterDuration(0, 3); m != 20 {
		t.Errorf("mean = %v", m)
	}
	if m := r.MeanIterDuration(1, 100); m != 25 {
		t.Errorf("clamped mean = %v", m)
	}
	if m := r.MeanIterDuration(-5, 1); m != 10 {
		t.Errorf("negative-from mean = %v", m)
	}
	if m := r.MeanIterDuration(2, 2); m != 0 {
		t.Errorf("empty range mean = %v", m)
	}
}

// The crash of the master mid-run: a new master takes over and the
// run still completes (Satin's fault tolerance).
func TestMasterCrashRecovered(t *testing.T) {
	p := baseParams(40)
	p.Events = []Injection{{
		At: 100, Kind: InjCrash, Cluster: "fs0", Count: 1, // fs0/00 is the master
	}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run with crashed master did not complete: %d iterations", len(res.Iterations))
	}
	if res.FinalNodes != 35 {
		t.Errorf("final nodes = %d, want 35", res.FinalNodes)
	}
}

// Scenario 5's signature: after the bad cluster goes, WAE sits between
// the thresholds, so the lightly loaded slow nodes are kept — the
// situation the paper uses to motivate opportunistic migration.
func TestScenario5NoActionBetweenThresholds(t *testing.T) {
	p := baseParams(60)
	p = adaptive(p)
	p.Events = []Injection{
		{At: 1, Kind: InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3},
		{At: 1, Kind: InjSetLoad, Cluster: "fs1", Count: 6, Load: 2},
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// After the cluster removal settles, later periods should be
	// mostly no-action with WAE inside the band.
	inBand := 0
	late := res.Periods[len(res.Periods)/2:]
	for _, pr := range late {
		if pr.Action == "none" && pr.WAE >= 0.28 && pr.WAE <= 0.52 {
			inBand++
		}
	}
	if inBand < len(late)/2 {
		for _, pr := range res.Periods {
			t.Logf("t=%.0f WAE=%.3f action=%s", pr.Time, pr.WAE, pr.Action)
		}
		t.Errorf("expected a settled WAE between thresholds; %d/%d periods in band", inBand, len(late))
	}
}

// Work conservation: without faults, the busy time booked across all
// nodes equals the work the application defines — splitting conserves
// work exactly and no leaf runs twice.
func TestWorkConservation(t *testing.T) {
	p := baseParams(10)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * (p.Spec.WorkPerIteration + p.Spec.SequentialPerIteration)
	if diff := res.BusySec - want; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("busy = %v, want exactly %v (no faults, speed 1)", res.BusySec, want)
	}
}

// With crashes, busy time can only exceed the nominal work (orphaned
// leaves re-execute) — never fall short.
func TestWorkConservationUnderCrash(t *testing.T) {
	p := baseParams(20)
	p.Events = []Injection{{At: 60, Kind: InjCrash, Cluster: "fs1", Count: 6}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	want := 20 * (p.Spec.WorkPerIteration + p.Spec.SequentialPerIteration)
	if res.BusySec < want-1e-6 {
		t.Fatalf("busy = %v < nominal %v: work was lost", res.BusySec, want)
	}
}

// Iteration starts are contiguous: each iteration begins exactly when
// the previous ended, and durations are positive.
func TestIterationTimelineContiguous(t *testing.T) {
	p := baseParams(12)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0.0
	for i, it := range res.Iterations {
		if it.Duration <= 0 {
			t.Fatalf("iteration %d duration %v", i, it.Duration)
		}
		if it.Start < prevEnd-1e-9 || it.Start > prevEnd+1e-9 {
			t.Fatalf("iteration %d starts at %v, previous ended at %v", i, it.Start, prevEnd)
		}
		prevEnd = it.Start + it.Duration
	}
	if res.Runtime != prevEnd {
		t.Fatalf("runtime %v != last iteration end %v", res.Runtime, prevEnd)
	}
}

// stealSeries reads the process's five steal/* series.
func stealSeries() steal.Stats {
	c := func(name string) int64 { return int64(obs.Default.Counter("steal/" + name).Value()) }
	return steal.Stats{
		SyncLocal: c("sync_local_attempts"), SyncWide: c("sync_wide_attempts"),
		Async: c("async_attempts"), Hits: c("hits"), Misses: c("misses"),
	}
}

// plus adds b to a, counter by counter; sign -1 subtracts it.
func plus(a, b steal.Stats, sign int64) steal.Stats {
	return steal.Stats{
		SyncLocal: a.SyncLocal + sign*b.SyncLocal, SyncWide: a.SyncWide + sign*b.SyncWide,
		Async: a.Async + sign*b.Async, Hits: a.Hits + sign*b.Hits, Misses: a.Misses + sign*b.Misses,
	}
}

// A run publishes what every one of its engines counted: the steal/*
// series move by the sum of the engines' Stats, the engines of nodes
// that crashed or that the coordinator removed mid-run included (a
// removed thief's steal can still come back after it left).
func TestStealSeriesSumEveryEngine(t *testing.T) {
	engines := map[*steal.Engine]core.NodeID{}
	newEngine = func(p steal.Policy, self core.NodeID, c core.ClusterID, seed int64) *steal.Engine {
		e := steal.New(p, self, c, seed)
		engines[e] = self
		return e
	}
	defer func() { newEngine = steal.New }()
	p := adaptive(baseParams(40))
	p.Events = []Injection{
		{At: 1, Kind: InjShapeUplink, Cluster: "fs2", Bandwidth: 100e3},
		{At: 60, Kind: InjCrash, Cluster: "fs1", Count: 4},
	}
	before := stealSeries()
	res, s, err := runReturningSim(p)
	if err != nil {
		t.Fatal(err)
	}
	after := stealSeries()
	var want, departed steal.Stats
	for e, id := range engines {
		want = plus(want, e.Stats(), 1)
		if _, live := s.nodes[id]; !live {
			departed = plus(departed, e.Stats(), 1)
		}
	}
	if got := plus(after, before, -1); got != want {
		t.Fatalf("steal/* moved by %+v, the run's %d engines counted %+v", got, len(engines), want)
	}
	if departed.SyncLocal == 0 || departed.Async == 0 || len(engines)-res.FinalNodes < 8 {
		t.Fatalf("%d engines, %d nodes at the end, departed nodes counted %+v: the run removed too little to test",
			len(engines), res.FinalNodes, departed)
	}
}
