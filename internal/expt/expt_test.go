package expt

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestAllScenariosWellFormed(t *testing.T) {
	scs := All()
	if len(scs) != 13 {
		t.Fatalf("got %d scenarios, want 13", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.ID] {
			t.Errorf("duplicate id %s", sc.ID)
		}
		seen[sc.ID] = true
		if sc.Name == "" || sc.Figure == "" || sc.Description == "" {
			t.Errorf("scenario %s under-documented", sc.ID)
		}
		for _, v := range []Variant{NoAdapt, Adaptive, MonitorOnly} {
			p := sc.Build(v, 1)
			if err := p.Validate(); err == nil {
				p.Defaults()
				if err2 := p.Validate(); err2 != nil {
					t.Errorf("scenario %s variant %s invalid: %v", sc.ID, v, err2)
				}
			}
			switch v {
			case NoAdapt:
				if p.Adapt != nil || p.Mon.Enabled {
					t.Errorf("scenario %s: no-adapt variant has monitoring on", sc.ID)
				}
			case Adaptive:
				// A run has exactly one objective: the WAE band for batch
				// scenarios, the latency SLO for streaming ones.
				if (p.Adapt == nil) == (p.StreamSLO == nil) || !p.Mon.Enabled || p.MonitorOnly {
					t.Errorf("scenario %s: adaptive variant misconfigured", sc.ID)
				}
			case MonitorOnly:
				if !p.MonitorOnly || !p.Mon.Enabled {
					t.Errorf("scenario %s: monitor-only variant misconfigured", sc.ID)
				}
			}
		}
	}
}

// TestByID: every scenario of the paper's evaluation is registered
// under its figure's ID.
func TestByID(t *testing.T) {
	for _, id := range []string{"1", "2a", "2b", "2c", "3", "4", "5", "6"} {
		if sc, ok := ByID(id); !ok || sc.Build == nil {
			t.Errorf("scenario %s missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("found nonexistent scenario")
	}
}

// TestRunScenarioSingleVariant: Run executes exactly the variants it
// is asked for.
func TestRunScenarioSingleVariant(t *testing.T) {
	sc, _ := ByID("1")
	out, err := Run(sc, NoAdapt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[NoAdapt] == nil || !out.Results[NoAdapt].Completed {
		t.Fatalf("outcome = %+v", out.Results)
	}
	if len(out.Results) != 1 {
		t.Errorf("unrequested variants ran: %v", out.Results)
	}
}

func TestOutcomeMath(t *testing.T) {
	o := &Outcome{Results: map[Variant]*des.Result{
		NoAdapt:     {Runtime: 200},
		Adaptive:    {Runtime: 150},
		MonitorOnly: {Runtime: 210},
	}}
	if got := o.Improvement(); got != 0.25 {
		t.Errorf("improvement = %v", got)
	}
	if got := o.Overhead(MonitorOnly); got != 0.05 {
		t.Errorf("overhead = %v", got)
	}
	empty := &Outcome{Results: map[Variant]*des.Result{}}
	if empty.Improvement() != 0 || empty.Overhead(Adaptive) != 0 {
		t.Error("missing variants should give 0")
	}
}

// Scenario 1 end to end, all three variants: the adaptivity-overhead
// measurement of §5.1. The monitoring cost must be positive but small.
func TestScenario1OverheadSmall(t *testing.T) {
	sc, _ := ByID("1")
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	na := out.Results[NoAdapt]
	ad := out.Results[Adaptive]
	mo := out.Results[MonitorOnly]
	if !na.Completed || !ad.Completed || !mo.Completed {
		t.Fatal("scenario 1 runs incomplete")
	}
	overhead := out.Overhead(MonitorOnly)
	t.Logf("runtimes: na=%.0f ad=%.0f mo=%.0f overhead=%.1f%%",
		na.Runtime, ad.Runtime, mo.Runtime, overhead*100)
	if overhead < 0 {
		t.Errorf("monitoring made the run faster? overhead=%v", overhead)
	}
	if overhead > 0.12 {
		t.Errorf("overhead %.1f%% too large (paper: a few percent)", overhead*100)
	}
	// In the no-disturbance scenario, the adaptive run must not wreck
	// the node set: the paper expects it to hold near the initial 36.
	if ad.FinalNodes < 24 {
		t.Errorf("adaptive run shrank to %d nodes in the ideal scenario", ad.FinalNodes)
	}
	if mo.BenchSec == 0 || na.BenchSec != 0 {
		t.Errorf("bench accounting: na=%v mo=%v", na.BenchSec, mo.BenchSec)
	}
}

// The paper's headline: scenarios 2a-6 all improve with adaptation.
func TestAdaptationImprovesAllDisturbedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	for _, id := range []string{"2a", "2b", "3", "4", "5", "6"} {
		sc, _ := ByID(id)
		out, err := Run(sc, NoAdapt, Adaptive)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		imp := out.Improvement()
		t.Logf("scenario %s: improvement %.0f%%", id, imp*100)
		if imp <= 0 {
			t.Errorf("scenario %s: adaptation did not improve runtime (%.1f%%)", id, imp*100)
		}
		if !out.Results[Adaptive].Completed {
			t.Errorf("scenario %s: adaptive run incomplete", id)
		}
	}
}

// Scenario 10 end to end: under the mid-stream slowdown the latency-SLO
// objective must bring mean item latency back inside the target while
// the static run's open-loop backlog blows far past it — the
// EXPERIMENTS.md streaming table.
func TestScenario10StreamingSLO(t *testing.T) {
	sc, _ := ByID("10")
	out, err := Run(sc, NoAdapt, Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	na, ad := out.Results[NoAdapt], out.Results[Adaptive]
	if !na.Completed || !ad.Completed {
		t.Fatalf("scenario 10 runs incomplete: na=%v ad=%v", na.Completed, ad.Completed)
	}
	target := sc.Build(NoAdapt, sc.Seed).Stream.TargetLatency
	t.Logf("mean latency: na=%.1fs ad=%.1fs (target %.0fs); runtimes na=%.0f ad=%.0f",
		na.MeanStreamLatency(), ad.MeanStreamLatency(), target, na.Runtime, ad.Runtime)
	if m := ad.MeanStreamLatency(); m > target {
		t.Errorf("adaptive mean latency %.1fs misses the %.0fs target", m, target)
	}
	if m := na.MeanStreamLatency(); m < 4*target {
		t.Errorf("static run too healthy to demonstrate the slowdown (mean %.1fs)", m)
	}
	if ad.PeakNodes <= 10 {
		t.Errorf("SLO objective never grew past the initial 10 (peak %d)", ad.PeakNodes)
	}
}

// Scenario 8 end to end: the first badly connected site is evacuated
// and teaches a minimum-bandwidth requirement; the identically slow
// second site is then never allocated at all, even though it was never
// blacklisted.
func TestScenario8LearnedBandwidthRequirement(t *testing.T) {
	sc, _ := ByID("8")
	out, err := Run(sc, Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[Adaptive]
	if !res.Completed {
		t.Fatal("incomplete")
	}
	foundDSL1 := false
	for _, c := range res.BlacklistedClusters {
		if c == "dsl1" {
			foundDSL1 = true
		}
		if c == "dsl2" {
			t.Error("dsl2 was blacklisted — it should have been excluded by the learned requirement, not tried")
		}
	}
	if !foundDSL1 {
		t.Errorf("dsl1 not blacklisted: %v", res.BlacklistedClusters)
	}
	if res.MinBandwidth <= 0 {
		t.Error("no minimum-bandwidth requirement learned")
	}
	for _, c := range res.UsedClusters {
		if c == "dsl2" {
			t.Error("dsl2 hosted nodes despite the learned bandwidth requirement")
		}
	}
}

// Scenario 5x: opportunistic migration strictly improves on scenario 5.
func TestScenario5xOpportunisticBeatsPlain(t *testing.T) {
	plain, _ := ByID("5")
	opp, _ := ByID("5x")
	p, err := Run(plain, Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(opp, Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	tp, to := p.Results[Adaptive].Runtime, o.Results[Adaptive].Runtime
	t.Logf("plain=%.0fs opportunistic=%.0fs", tp, to)
	if to >= tp {
		t.Errorf("opportunistic migration (%.0fs) did not beat plain adaptation (%.0fs)", to, tp)
	}
}

// Scenario 9: load-aware benchmarking shrinks the adaptivity overhead.
func TestScenario9LoadAwareBenchmarking(t *testing.T) {
	plain, _ := ByID("1")
	aware, _ := ByID("9")
	po, err := Run(plain, NoAdapt, MonitorOnly)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := Run(aware, NoAdapt, MonitorOnly)
	if err != nil {
		t.Fatal(err)
	}
	plainOverhead := po.Overhead(MonitorOnly)
	awareOverhead := ao.Overhead(MonitorOnly)
	t.Logf("plain overhead=%.2f%% load-aware=%.2f%%", plainOverhead*100, awareOverhead*100)
	if awareOverhead >= plainOverhead {
		t.Errorf("load-aware benchmarking did not reduce overhead: %.2f%% vs %.2f%%",
			awareOverhead*100, plainOverhead*100)
	}
	if ao.Results[MonitorOnly].BenchSec >= po.Results[MonitorOnly].BenchSec {
		t.Errorf("bench time not reduced: %.0f vs %.0f",
			ao.Results[MonitorOnly].BenchSec, po.Results[MonitorOnly].BenchSec)
	}
}

// The variants of a scenario simulate side by side, and each must come
// out exactly as it does run alone: the same period log (rendered
// through trace, as gridsim and replay print it), runtime, event count
// and iteration series, for every scenario and variant. decorate runs
// once per variant, in variant order, on the caller's goroutine before
// any simulation starts, and no goroutine outlives RunWith.
func TestRunWithMatchesSequential(t *testing.T) {
	variants := []Variant{NoAdapt, Adaptive, MonitorOnly}
	for _, sc := range All() {
		sc.Seed = 1
		base := runtime.NumGoroutine()
		var calls []Variant
		decorate := func(v Variant, p *des.Params) {
			calls = append(calls, v)
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("scenario %s: decorate(%s) ran beside %d new goroutines: a simulation had started", sc.ID, v, n-base)
			}
			shorten(p)
		}
		out, err := RunWith(sc, decorate, variants...)
		if err != nil {
			t.Fatalf("scenario %s: %v", sc.ID, err)
		}
		settleGoroutines(t, base, "scenario "+sc.ID)
		if !slices.Equal(calls, variants) {
			t.Errorf("scenario %s: decorate called for %v, want %v", sc.ID, calls, variants)
		}
		for _, v := range variants {
			p := sc.Build(v, sc.Seed)
			shorten(&p)
			want, err := des.Run(p)
			if err != nil {
				t.Fatalf("scenario %s variant %s alone: %v", sc.ID, v, err)
			}
			got := out.Results[v]
			if got.Runtime != want.Runtime || got.Events != want.Events || got.Completed != want.Completed {
				t.Errorf("scenario %s variant %s: runtime %v, %d events, completed %v; alone %v, %d, %v",
					sc.ID, v, got.Runtime, got.Events, got.Completed, want.Runtime, want.Events, want.Completed)
			}
			if !slices.Equal(got.Iterations, want.Iterations) {
				t.Errorf("scenario %s variant %s: iteration series differs from the run alone", sc.ID, v)
			}
			if g, w := periodLog(got), periodLog(want); g != w {
				t.Errorf("scenario %s variant %s: period log\n%s\nalone\n%s", sc.ID, v, g, w)
			}
		}
	}
}

// The variants' simulations publish their steal counts into the one
// process registry from their own goroutines: side by side they move
// every steal/* series by what the runs move it by one after another.
func TestRunWithPublishesEveryVariant(t *testing.T) {
	names := []string{"sync_local_attempts", "sync_wide_attempts", "async_attempts", "hits", "misses"}
	series := func() (v []uint64) {
		for _, name := range names {
			v = append(v, obs.Default.Counter("steal/"+name).Value())
		}
		return v
	}
	moved := func(run func()) []uint64 {
		before := series()
		run()
		after := series()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	for _, id := range []string{"4", "5x"} {
		sc, _ := ByID(id)
		sc.Seed = 1
		variants := []Variant{NoAdapt, Adaptive}
		together := moved(func() {
			if _, err := RunWith(sc, func(_ Variant, p *des.Params) { shorten(p) }, variants...); err != nil {
				t.Fatal(err)
			}
		})
		alone := make([]uint64, len(names))
		for _, v := range variants {
			got := moved(func() {
				p := sc.Build(v, sc.Seed)
				shorten(&p)
				if _, err := des.Run(p); err != nil {
					t.Fatal(err)
				}
			})
			for i := range got {
				alone[i] += got[i]
			}
		}
		if !slices.Equal(together, alone) || together[0] == 0 {
			t.Errorf("scenario %s: steal/{%s} moved by %v side by side, by %v one after another",
				id, strings.Join(names, ","), together, alone)
		}
	}
}

// shorten stops a run at virtual second 200: past the first
// coordinator period (the sixth of the streaming scenario) and the
// injections of scenarios 4, 5, 5x and 10, at a fifth of the wall time
// of the whole runs, which the race detector makes about eighteen
// times slower.
func shorten(p *des.Params) { p.MaxTime = 200 }

func periodLog(r *des.Result) string {
	var b strings.Builder
	trace.WritePeriods(&b, r.Periods)
	return b.String()
}

// A variant that fails validation is named with its scenario, the
// first failure in variant order is the one reported, and it comes
// back only after the variants that did run have finished.
func TestRunWithReportsFailedVariant(t *testing.T) {
	one, _ := ByID("1")
	sc := Scenario{ID: "broken", Seed: 1, Build: func(v Variant, seed int64) des.Params {
		p := one.Build(v, seed)
		shorten(&p)
		if v != NoAdapt {
			p.Initial = nil
		}
		return p
	}}
	base := runtime.NumGoroutine()
	out, err := RunWith(sc, nil, NoAdapt, MonitorOnly, Adaptive)
	if out != nil || err == nil {
		t.Fatalf("RunWith = %v, %v; want an error", out, err)
	}
	if want := "expt: scenario broken variant monitor-only: des: empty initial allocation"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	settleGoroutines(t, base, "after a failed RunWith")
}

// settleGoroutines waits for the goroutine count to come down to want:
// a goroutine that has signalled its WaitGroup may take a moment to
// exit.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines %s, want at most %d:\n%s", runtime.NumGoroutine(), when, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
