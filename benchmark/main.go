// Command benchmark is the repo's benchmark: five named workloads that
// drive the system from outside through its public functions, check
// every result, and print every metric by name with its unit. See
// README.md for the workloads, the metrics and the coverage map, and
// BENCHMARK.json at the root of the repo for the contract it meets.
//
//	go run ./benchmark --workload spawn_tree --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "one of spawn_tree, grid_steal, service_jobs, des_paper, des_scale")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run: spans, per-layer arms and counts, attribution")
		smoke    = flag.Bool("smoke", false, "shrink every input (about a second per workload); numbers are meaningless")
		wrong    = flag.Bool("wrong", false, "expect a deliberately wrong result on every second op (negative test)")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args(), os.Stdout))
	}
	log.SetOutput(io.Discard) // the program's own chatter
	cfg := runConfig{
		workload: *workload, seed: *seed, trace: *trace != 0, smoke: *smoke, wrong: *wrong,
		seconds: time.Duration(*seconds * float64(time.Second)),
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Print(r.table())
	if *out != "" {
		if err := writeReport(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(contractLine(r))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if r.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload and returns its report.
func run(cfg runConfig) (*report, error) {
	runners := map[string]func(runConfig, *report, *tracer) error{
		wSpawnTree:   runGrid,
		wGridSteal:   runGrid,
		wServiceJobs: runService,
		wDESPaper:    runDES,
		wDESScale:    runDES,
	}
	runner, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r := newReport(cfg)
	if err := runner(cfg, r, tr); err != nil {
		return nil, err
	}
	if cfg.trace {
		// Everything the workload started is closed by now; what is
		// still running leaked.
		time.Sleep(50 * time.Millisecond)
		r.set("runtime.goroutines_end", float64(runtime.NumGoroutine()), 0)
		runArms(cfg, r, tr)
		attribute(r)
		if _, err := tr.write(cfg.workload); err != nil {
			return nil, err
		}
	}
	r.fillNull()
	return r, nil
}

func writeReport(path string, r *report) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// contractLine is the last line of output. An untraced run carries the
// end-to-end metrics BENCHMARK.json gates: those defined on every
// workload and never zero. A traced run carries every other metric:
// the end-to-end ones that exist on some workloads only (or,
// failed_share, are zero when all is well) and the per-layer ones. The
// line has no way to say null, so an absent value reads 0 there; the
// table and the -out document keep the difference.
func contractLine(r *report) resultLine {
	line := resultLine{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]lineMetric),
	}
	for _, d := range allDefs() {
		if (d.gate > 0) != r.Traced {
			line.Metrics[d.name] = lineMetric{Value: r.get(d.name).or0(), Unit: d.unit}
		}
	}
	return line
}
