package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/expt"
	"repro/internal/workload"
)

// desRun is one step of an op: a name for its span and the
// simulations it runs.
type desRun struct {
	name string
	run  func() ([]*des.Result, error)
}

// desOutcome is what one op (one pass over the runs) produced.
type desOutcome struct {
	results  map[string][]*des.Result // by run name
	digest   string                   // digest of every period log, in run order
	virtualS float64                  // simulated seconds, summed
	periods  int
	slowest  float64 // ms of the slowest single step
}

// defaultSeed is the seed the committed golden digests were taken at.
const defaultSeed = 1

// paperRuns is one pass over the paper's evaluation: every scenario of
// expt.All() without and with adaptation, each simulated at --seed. Small
// worlds (16-72 nodes) on the flat kernel, both objectives (scenario 10
// is StreamSLO). A pass takes the same wall time within 3 % at any seed.
func paperRuns(cfg runConfig) []desRun {
	var runs []desRun
	for _, sc := range expt.All() {
		if cfg.smoke && sc.ID != "1" && sc.ID != "4" {
			continue
		}
		sc := sc
		sc.Seed = cfg.seed
		runs = append(runs, desRun{name: sc.ID, run: func() ([]*des.Result, error) {
			out, err := expt.Run(sc, expt.NoAdapt, expt.Adaptive)
			if err != nil {
				return nil, err
			}
			return []*des.Result{out.Results[expt.NoAdapt], out.Results[expt.Adaptive]}, nil
		}})
	}
	return runs
}

// bigWorld is the ISSUE 8 big-world spec on a uniform synthetic grid.
// It is the one input --seed does not reach: other draws lead the
// coordinator to other decisions and so to other amounts of simulated
// work (3.8-7.4 s of wall time over seeds 1-10), a spread across seeds
// that no regression bound survives. The world is fixed instead.
func bigWorld(clusters, perCluster int, sharded bool) des.Params {
	t := uniformTopo("g%03d", clusters, perCluster)
	var initial []des.Alloc
	for _, c := range t.Clusters {
		initial = append(initial, des.Alloc{Cluster: c.ID, Count: perCluster})
	}
	p := des.Params{
		Topo: t,
		Spec: workload.Spec{
			Name:                   "bigworld",
			Iterations:             2,
			WorkPerIteration:       60 * float64(clusters*perCluster), // ~60 s per node
			SequentialPerIteration: 2,
			Grain:                  10,
			Irregularity:           0.3,
			BytesPerNode:           1e6,
			ExchangeBytes:          1e5,
			StealMsgBytes:          4096,
		},
		Seed:    defaultSeed,
		Initial: initial,
		Mon:     des.DefaultMonitor(),
		Sharded: sharded,
	}
	p.Mon.Period = 45 // several coordinator ticks inside the short run
	ecfg := core.DefaultConfig()
	p.Adapt = &ecfg
	if sharded {
		p.ProposalCap = 8 // O(1) summaries: the big-grid configuration
	}
	return p
}

// scaleRuns is the world that dominates tier-1 wall time, cut to fit a
// run: 2,000 nodes under the sharded tree, then 1,000 under the flat
// kernel.
func scaleRuns(cfg runConfig) []desRun {
	clusters, perCluster := 40, 50
	if cfg.smoke {
		clusters, perCluster = 4, 10
	}
	return []desRun{
		worldRun("sharded_2k", bigWorld(clusters, perCluster, true)),
		worldRun("flat_1k", bigWorld(clusters/2, perCluster, false)),
	}
}

func worldRun(name string, p des.Params) desRun {
	return desRun{name: name, run: func() ([]*des.Result, error) {
		res, err := des.Run(p)
		return []*des.Result{res}, err
	}}
}

// warmUp is the fixed small simulation set-up runs once to fault the
// code in: scenario 1 for the paper worlds, a 200-node sharded world
// for the big ones.
func warmUp(cfg runConfig) desRun {
	if cfg.workload == wDESScale {
		return worldRun("warm-up", bigWorld(10, 20, true))
	}
	return paperRuns(runConfig{smoke: true, seed: cfg.seed})[0]
}

// pass executes every run once and digests the period logs.
func pass(runs []desRun, ot opTrace) (*desOutcome, error) {
	out := &desOutcome{results: make(map[string][]*des.Result)}
	h := sha256.New()
	for _, run := range runs {
		sp := ot.begin("des.run/" + run.name)
		t0 := time.Now()
		results, err := run.run()
		el := ms(time.Since(t0))
		ot.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", run.name, err)
		}
		if el > out.slowest {
			out.slowest = el
		}
		out.results[run.name] = results
		for _, res := range results {
			out.virtualS += res.Runtime
			out.periods += len(res.Periods)
			fmt.Fprintf(h, "%s completed=%v runtime=%.6f iters=%d final=%d\n",
				run.name, res.Completed, res.Runtime, len(res.Iterations), res.FinalNodes)
			for _, pr := range res.Periods {
				fmt.Fprintf(h, "%.3f %.6f %d %d %s +%d -%d\n",
					pr.Time, pr.WAE, pr.Nodes, pr.Stats, pr.Action, pr.Added, pr.Removed)
			}
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	return out, nil
}

// golden returns the committed period-log digest for a workload, or ""
// where there is none: the shrunken smoke inputs, and the paper's
// scenarios at any seed but the default one. Without a golden digest
// every pass must reproduce the first pass's.
func golden(cfg runConfig) (string, error) {
	if cfg.smoke || (cfg.workload == wDESPaper && cfg.seed != defaultSeed) {
		return "", nil
	}
	raw, err := os.ReadFile(filepath.Join(benchDir(), "testdata", cfg.workload+".digest"))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(raw)), nil
}

// benchDir finds the harness's own directory from the repo root (go
// run) or from inside it (go test).
func benchDir() string {
	if _, err := os.Stat("benchmark/testdata"); err == nil {
		return "benchmark"
	}
	return "."
}

func runDES(cfg runConfig, r *report, tr *tracer) error {
	build := paperRuns
	if cfg.workload == wDESScale {
		build = scaleRuns
	}

	// Set-up, repeated: construct the runs, load the golden digest and
	// run the warm-up simulation.
	var (
		setup []float64
		runs  []desRun
		want  string
	)
	for i := 0; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		runs = build(cfg)
		var err error
		if want, err = golden(cfg); err != nil {
			return err
		}
		if res, err := warmUp(cfg).run(); err != nil || !res[0].Completed {
			return fmt.Errorf("warm-up run failed: %v", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Every pass simulates the same inputs, so every pass must produce
	// the same period logs: the committed ones where there are any.
	var first string
	var outcomes []*desOutcome
	p := timedPhase(cfg.seconds, 1, tr, func(_, i int, ot opTrace) (string, bool) {
		out, err := pass(runs, ot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return "op", false
		}
		ok := true
		for _, results := range out.results {
			for _, res := range results {
				ok = ok && res.Completed
			}
		}
		if first == "" {
			first = out.digest
		}
		expect := first
		if want != "" {
			expect = want
		}
		if cfg.expectWrong(i) {
			expect = "wrong on purpose"
		}
		if out.digest != expect {
			fmt.Fprintf(os.Stderr, "benchmark: %s: digest got %s want %s\n", cfg.workload, out.digest, expect)
			ok = false
		}
		if ok {
			outcomes = append(outcomes, out)
		}
		return "op", ok
	})

	reportCommon(r, cfg, p, setup, "op")
	if len(outcomes) == 0 {
		return nil
	}
	last := outcomes[len(outcomes)-1]
	if cfg.workload == wDESPaper {
		reportPaper(r, cfg, last)
	}
	if cfg.trace {
		var virtual float64
		var periods int
		var slowest []float64
		for _, o := range outcomes {
			virtual += o.virtualS
			periods += o.periods
			slowest = append(slowest, o.slowest)
		}
		wall := 0.0
		for _, l := range p.lat("op") {
			wall += l / 1000
		}
		r.set("des.virtual_s_per_wall_s", virtual/wall, len(outcomes))
		r.set("des.periods_per_s", float64(periods)/wall, len(outcomes))
		if cfg.workload == wDESPaper {
			r.set("des.paper_slowest_ms", median(slowest), len(slowest))
		} else {
			// Only the traced ops carry spans; the arithmetic is the same.
			r.setOpt("des.sharded_2k_s", medianOf(tr.durations("des.run/sharded_2k")).times(1e-3))
			r.setOpt("des.flat_1k_s", medianOf(tr.durations("des.run/flat_1k")).times(1e-3))
		}
		reportRegistryCounts(r, p)
	}
	return nil
}

// reportPaper derives the paper's headline from one pass: the mean
// runtime reduction of the adaptive run over the scenarios of §5.2-5.6,
// and scenario 1's price of monitoring.
func reportPaper(r *report, cfg runConfig, o *desOutcome) {
	var gains []float64
	for _, id := range []string{"2a", "2b", "2c", "3", "4", "5", "6"} {
		if res := o.results[id]; res != nil && res[0].Runtime > 0 {
			gains = append(gains, (res[0].Runtime-res[1].Runtime)/res[0].Runtime*100)
		}
	}
	if len(gains) > 0 {
		total := 0.0
		for _, g := range gains {
			total += g
		}
		r.set("adapt_gain_pct", total/float64(len(gains)), len(gains))
	}
	if res := o.results["1"]; cfg.trace && res != nil && res[0].Runtime > 0 {
		r.set("expt.overhead_pct", (res[1].Runtime-res[0].Runtime)/res[0].Runtime*100, 1)
	}
}
