package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
)

// corpusSeeds is the deterministic chaos corpus: every seed is a full
// randomized scenario (topology, allocation, injection schedule). A
// failure names its seed; `go test -run 'ChaosCorpusDES/seed=N'`
// replays exactly that scenario.
var corpusSeeds = func() []int64 {
	s := make([]int64, 24)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}()

func TestChaosCorpusDES(t *testing.T) {
	seeds := corpusSeeds
	if testing.Short() {
		seeds = seeds[:6]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed, GenConfig{})
			res, obs, err := RunDES(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			// Completion-or-reason: a chaos scenario must either finish
			// or the result must say how far it got before the abort.
			if !res.Completed {
				t.Errorf("seed %d: aborted at horizon %.0fs after %d/%d iterations (events: %v)",
					seed, sc.Horizon, len(res.Iterations), sc.Spec.Iterations, sc.Events)
			}
			for _, v := range Check(obs, CheckConfig{
				EMin:            sc.DESParams().Adapt.EMin,
				EMax:            sc.DESParams().Adapt.EMax,
				DisturbEnd:      sc.DisturbEnd(),
				RequireRecovery: true,
			}) {
				t.Errorf("seed %d: %s", seed, v)
			}
		})
	}
}

// TestChaosCorpusShardedDES is the coordinator-fault corpus (ISSUE 8):
// every scenario runs on the sharded tree with coordinator kills in
// the event mix. The invariants are the flat corpus's — blacklists
// monotone, no re-provisioning after eviction, actions grounded in
// fresh statistics — plus WAE recovery, which after a root kill can
// only hold if the subs detected the silence, elected a successor, and
// the successor resumed adaptation on fresh summaries.
func TestChaosCorpusShardedDES(t *testing.T) {
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 101)
	}
	if testing.Short() {
		seeds = seeds[:6]
	}
	// Coverage guard: the corpus must actually exercise both
	// coordinator faults, or the failover path rots silently.
	rootKills, subKills := 0, 0
	for _, seed := range seeds {
		for _, e := range Generate(seed, GenConfig{CoordFaults: true}).Events {
			switch e.Kind {
			case EvRootCrash:
				rootKills++
			case EvSubCrash:
				subKills++
			}
		}
	}
	if rootKills == 0 || subKills == 0 {
		t.Fatalf("corpus seeds draw %d root kills and %d sub kills; shift the seed window",
			rootKills, subKills)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed, GenConfig{CoordFaults: true})
			if !sc.Sharded {
				t.Fatal("CoordFaults scenario not marked Sharded")
			}
			res, obs, err := RunDES(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Completed {
				t.Errorf("seed %d: aborted at horizon %.0fs after %d/%d iterations (events: %v)",
					seed, sc.Horizon, len(res.Iterations), sc.Spec.Iterations, sc.Events)
			}
			for _, v := range Check(obs, CheckConfig{
				EMin:            sc.DESParams().Adapt.EMin,
				EMax:            sc.DESParams().Adapt.EMax,
				DisturbEnd:      sc.DisturbEnd(),
				RequireRecovery: true,
			}) {
				t.Errorf("seed %d: %s", seed, v)
			}
		})
	}
}

// TestChaosCorpusStreamingDES is the streaming-objective corpus
// (ISSUE 9): every scenario runs the open-loop pipeline workload under
// the latency-SLO objective with the same disturbance generator as the
// batch corpus. On top of the structural invariants it demands the two
// SLO-specific ones: after the last disturbance the stream health
// (target latency over observed mean) must climb back to 1.0 within a
// bounded number of ticks, and the grow/shrink sequence must not
// oscillate beyond what the disturbance schedule justifies.
func TestChaosCorpusStreamingDES(t *testing.T) {
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 201)
	}
	if testing.Short() {
		seeds = seeds[:6]
	}
	// Coverage guard: the seed window must draw every DES-applicable
	// disturbance kind, or a whole recovery path goes untested.
	drawn := map[EventKind]int{}
	for _, seed := range seeds {
		for _, e := range Generate(seed, GenConfig{Streaming: true}).Events {
			drawn[e.Kind]++
		}
	}
	if drawn[EvLoad] == 0 || drawn[EvShape] == 0 || drawn[EvCrash] == 0 {
		t.Fatalf("streaming corpus draws load=%d shape=%d crash=%d events; shift the seed window",
			drawn[EvLoad], drawn[EvShape], drawn[EvCrash])
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed, GenConfig{Streaming: true})
			if sc.Stream == nil {
				t.Fatal("Streaming scenario has no stream spec")
			}
			res, obs, err := RunDES(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Completed {
				t.Errorf("seed %d: aborted at horizon %.0fs with %d/%d items through (events: %v)",
					seed, sc.Horizon, res.StreamCompleted, sc.Stream.Items, sc.Events)
			} else if res.StreamCompleted != sc.Stream.Items {
				t.Errorf("seed %d: completed run lost items: %d/%d", seed, res.StreamCompleted, sc.Stream.Items)
			}
			for _, v := range Check(obs, CheckConfig{
				DisturbEnd:         sc.DisturbEnd(),
				RequireSLORecovery: true,
				SLORecoverWithin:   15,
				MaxDirectionFlips:  2*len(sc.Events) + 2,
			}) {
				t.Errorf("seed %d: %s", seed, v)
			}
		})
	}
}

// The whole corpus is a pure function of its seeds.
func TestChaosGeneratorDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1, GenConfig{}), Generate(2, GenConfig{})) {
		t.Fatal("different seeds generated identical scenarios")
	}
	a := Generate(7, GenConfig{CoordFaults: true})
	if !reflect.DeepEqual(a, Generate(7, GenConfig{CoordFaults: true})) {
		t.Fatal("CoordFaults generator is not deterministic")
	}
	s := Generate(7, GenConfig{Streaming: true})
	if s.Stream == nil {
		t.Fatal("Streaming generator produced no stream spec")
	}
	if !reflect.DeepEqual(s, Generate(7, GenConfig{Streaming: true})) {
		t.Fatal("Streaming generator is not deterministic")
	}
}

// kernelActuator is a scripted runtime for driving coord.Kernel
// directly: grants whatever is asked, evicts whatever it is told.
type kernelActuator struct {
	provisioned int
	evicted     []core.NodeID
}

func (a *kernelActuator) Provision(n int, _ float64, _ coord.Veto) int {
	a.provisioned += n
	return n
}

func (a *kernelActuator) Evict(victims []core.NodeID, _ string) []core.NodeID {
	a.evicted = append(a.evicted, victims...)
	return victims
}

func (a *kernelActuator) ObservedBandwidth(core.ClusterID) float64 { return 0 }
func (a *kernelActuator) Annotate(string)                          {}

// idleReport builds a mostly idle period report: low WAE, so the
// decision engine wants to shrink.
func idleReport(id core.NodeID, cluster core.ClusterID, start, end float64) metrics.Report {
	dur := end - start
	return metrics.Report{
		Node: id, Cluster: cluster, Start: start, End: end,
		BusySec: 0.1 * dur, IdleSec: 0.9 * dur, Speed: 1,
	}
}

// No action may chain off pre-action stale statistics: after the
// kernel acts, its stored reports describe the pre-action grid, so the
// very next tick — before any fresh report arrives — must observe and
// do nothing. This is the kernel-level half of the invariant; the
// log-level half (action-needs-stats) runs over both runtimes' period
// logs in the corpus tests.
func TestChaosKernelNoStaleActionChain(t *testing.T) {
	cfg := core.DefaultConfig()
	act := &kernelActuator{}
	k, err := coord.New(coord.Config{Engine: &cfg}, act)
	if err != nil {
		t.Fatal(err)
	}
	var live []core.NodeID
	for i := 0; i < 6; i++ {
		live = append(live, core.NodeID(fmt.Sprintf("c0/%02d", i)))
	}
	k.SetProtected(live[0])
	for _, id := range live {
		k.Report(idleReport(id, "c0", 0, 180))
	}

	rec := k.Tick(180, live)
	if rec.Action != "remove-nodes" || rec.Removed == 0 {
		t.Fatalf("idle grid did not shrink: %+v", rec)
	}
	if rec.Stats != len(live) {
		t.Fatalf("first tick decided on %d reports, want %d", rec.Stats, len(live))
	}
	blacklisted := len(k.Requirements().BlacklistedNodes())
	if blacklisted != rec.Removed {
		t.Fatalf("evicted %d nodes but blacklisted %d", rec.Removed, blacklisted)
	}

	// Next period, zero fresh reports: the kernel must not reuse the
	// pre-action statistics it decided on last time.
	rec2 := k.Tick(360, live)
	if rec2.Stats != 0 {
		t.Fatalf("post-action tick saw %d stale reports, want 0", rec2.Stats)
	}
	if rec2.Action != "" && rec2.Action != "none" {
		t.Fatalf("action %q chained off stale pre-action stats: %+v", rec2.Action, rec2)
	}
	if rec2.Added != 0 || rec2.Removed != 0 {
		t.Fatalf("post-action tick changed the node set: %+v", rec2)
	}

	// Fresh reports restart the loop; the blacklist only ever grows.
	gone := make(map[core.NodeID]bool, len(act.evicted))
	for _, id := range act.evicted {
		gone[id] = true
	}
	var survivors []core.NodeID
	for _, id := range live {
		if !gone[id] {
			survivors = append(survivors, id)
		}
	}
	for _, id := range survivors {
		k.Report(idleReport(id, "c0", 180, 360))
	}
	rec3 := k.Tick(540, survivors)
	if rec3.Stats != len(survivors) {
		t.Fatalf("fresh reports not decided on: %+v", rec3)
	}
	if got := len(k.Requirements().BlacklistedNodes()); got < blacklisted {
		t.Fatalf("blacklist shrank: %d -> %d", blacklisted, got)
	}
}
