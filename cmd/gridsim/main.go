// Command gridsim reproduces the paper's evaluation: it runs the
// Barnes-Hut scenarios on the simulated DAS-2 grid in the requested
// variants and prints the runtime table (Figure 1), the coordinator's
// period log, and the per-iteration series (Figures 3–7), optionally
// exporting the series as CSV.
//
// Usage:
//
//	gridsim -scenario all              # every scenario, all variants
//	gridsim -scenario 4 -periods      # one scenario with the WAE log
//	gridsim -scenario all -csv out/   # also write figure CSV data
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/expt"
	"repro/internal/trace"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "scenario id (1, 2a..2c, 3..7) or 'all'")
		seed     = flag.Int64("seed", 42, "simulation seed")
		csvDir   = flag.String("csv", "", "directory to write per-scenario iteration CSVs")
		svgDir   = flag.String("svg", "", "directory to write per-scenario figure SVGs")
		periods  = flag.Bool("periods", false, "print the adaptive coordinator's period log")
		list     = flag.Bool("list", false, "list scenarios and exit")
		observe  = cli.ObserveFlags(flag.CommandLine, "gridsim",
			"serve /metrics (Prometheus), /events (JSONL) and /debug/pprof on this address while scenarios run",
			"append the run's events/samples/decisions to this durable record store (replay with cmd/replay)")
	)
	flag.Parse()

	if err := observe.Start(8192); err != nil {
		fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
		os.Exit(1)
	}
	defer observe.Close()
	rec := observe.Rec

	// The DES emits events stamped with virtual time; put the
	// recorder's own clock — which stamps registry samples and ad-hoc
	// Record calls — on that same axis, so /events and /samples (and
	// everything a sink persists) can be joined post-hoc. The clock
	// follows the latest coordinator tick of the running scenario.
	var vnow atomic.Uint64
	var decorate func(v expt.Variant, p *des.Params)
	if rec != nil {
		rec.SetClock(func() float64 { return math.Float64frombits(vnow.Load()) })
		decorate = func(v expt.Variant, p *des.Params) {
			if v != expt.Adaptive {
				return // only the adaptive run is recorded below
			}
			prev := p.Observe
			p.Observe = func(pr des.PeriodRecord, reqs *core.Requirements, perCluster map[core.ClusterID]int) {
				vnow.Store(math.Float64bits(pr.Time))
				if prev != nil {
					prev(pr, reqs, perCluster)
				}
			}
		}
	}
	if *list {
		for _, sc := range expt.All() {
			fmt.Printf("%-3s %-32s %s\n", sc.ID, sc.Name, sc.Figure)
		}
		return
	}

	var scenarios []expt.Scenario
	if *scenario == "all" {
		scenarios = expt.All()
	} else {
		sc, ok := expt.ByID(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "gridsim: unknown scenario %q (try -list)\n", *scenario)
			os.Exit(2)
		}
		scenarios = []expt.Scenario{sc}
	}

	var rows []trace.RuntimeRow
	for _, sc := range scenarios {
		sc.Seed = *seed
		fmt.Printf("=== scenario %s: %s (%s)\n", sc.ID, sc.Name, sc.Figure)
		fmt.Printf("    %s\n", sc.Description)
		t0 := time.Now()
		out, err := expt.RunWith(sc, decorate)
		wall := time.Since(t0).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			os.Exit(1)
		}
		na := out.Results[expt.NoAdapt]
		ad := out.Results[expt.Adaptive]
		mo := out.Results[expt.MonitorOnly]
		if rec != nil {
			// Re-emit the adaptive run on the recorder's event axis at
			// the simulator's own virtual timestamps.
			rec.Record("scenario", map[string]any{"id": sc.ID, "name": sc.Name})
			for _, pr := range ad.Periods {
				rec.RecordAt(pr.Time, "period", pr)
				if pr.Action != "" && pr.Action != "none" {
					rec.RecordAt(pr.Time, "decision", pr)
				}
			}
			for _, an := range ad.Annotations {
				rec.RecordAt(an.Time, "annotation", an)
			}
		}
		rows = append(rows, trace.RuntimeRow{
			Label:       fmt.Sprintf("%s %s", sc.ID, sc.Name),
			NoAdapt:     na.Runtime,
			Adaptive:    ad.Runtime,
			MonitorOnly: mo.Runtime,
		})
		fmt.Printf("    runtime: no-adapt %.0f s | adaptive %.0f s | monitor-only %.0f s | improvement %.0f%%\n",
			na.Runtime, ad.Runtime, mo.Runtime, out.Improvement()*100)
		// The variants run side by side, so the rate is their summed
		// throughput, not one simulation's.
		events := na.Events + ad.Events + mo.Events
		fmt.Printf("    simulated: %d events in %.2f s wall (%.2f M events/s summed over the variants running side by side; no-adapt %d, adaptive %d, monitor-only %d)\n",
			events, wall, float64(events)/wall/1e6, na.Events, ad.Events, mo.Events)
		if na.StreamCompleted > 0 {
			// Streaming scenario: the figure of merit is end-to-end item
			// latency against the SLO target, not runtime.
			fmt.Printf("    stream latency (mean/max s): no-adapt %.1f/%.1f | adaptive %.1f/%.1f | monitor-only %.1f/%.1f\n",
				na.MeanStreamLatency(), na.StreamMaxLatency,
				ad.MeanStreamLatency(), ad.StreamMaxLatency,
				mo.MeanStreamLatency(), mo.StreamMaxLatency)
		}
		fmt.Printf("    nodes: adaptive final %d (peak %d) | iterations no-adapt %s\n",
			ad.FinalNodes, ad.PeakNodes, trace.Sparkline(series(na), 60))
		fmt.Printf("    %36s adaptive %s\n", "", trace.Sparkline(series(ad), 60))
		if len(ad.Annotations) > 0 {
			fmt.Println("    timeline:")
			trace.WriteAnnotations(prefixWriter{"      "}, ad.Annotations)
		}
		if *periods {
			trace.WritePeriods(prefixWriter{"      "}, ad.Periods)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, sc.ID, out); err != nil {
				fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
				os.Exit(1)
			}
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, sc, out); err != nil {
				fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}

	fmt.Println("=== Figure 1: runtimes per scenario")
	trace.WriteRuntimeTable(os.Stdout, rows)
}

// series converts a simulator result into the runtime-independent view
// the trace renderers consume.
func series(r *des.Result) trace.Series {
	s := trace.Series{Periods: r.Periods, Annotations: r.Annotations}
	for _, it := range r.Iterations {
		s.Iterations = append(s.Iterations, trace.Iteration(it))
	}
	return s
}

func writeCSV(dir, id string, out *expt.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("scenario-%s-iterations.csv", id)))
	if err != nil {
		return err
	}
	defer f.Close()
	m := make(map[string]trace.Series, len(out.Results))
	for v, r := range out.Results {
		m[string(v)] = series(r)
	}
	trace.WriteIterationsCSV(f, m)
	return nil
}

func writeSVG(dir string, sc expt.Scenario, out *expt.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("scenario-%s.svg", sc.ID)))
	if err != nil {
		return err
	}
	defer f.Close()
	m := make(map[string]trace.Series, len(out.Results))
	for v, r := range out.Results {
		if v == expt.MonitorOnly {
			continue // the figures plot the NA vs AD series
		}
		m[string(v)] = series(r)
	}
	trace.WriteIterationsSVG(f, fmt.Sprintf("Scenario %s: %s", sc.ID, sc.Name), m)
	return nil
}

// prefixWriter indents each output chunk; adequate for line-oriented
// renderers that write whole lines per call.
type prefixWriter struct{ prefix string }

func (p prefixWriter) Write(b []byte) (int, error) {
	os.Stdout.WriteString(p.prefix)
	n, err := os.Stdout.Write(b)
	return n, err
}
