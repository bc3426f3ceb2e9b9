package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// aaSpread is the run-to-run spread observed when this benchmark was
// defined: ten runs of one commit per workload, each with another
// seed, as the distance between the quartiles over the median (the
// wider of two such sets). It is what -compare falls back on when a
// document holds too few runs to show its own spread. README.md has
// the full table.
var aaSpread = map[string]map[string]float64{
	wSpawnTree:   {"setup_s": 0.137, "ops_per_s": 0.021, "op_p50_ms": 0.021, "op_p90_ms": 0.040, "scaling_efficiency": 0.022, "cpu_ms_per_op": 0.034, "peak_rss_mb": 0.041},
	wGridSteal:   {"setup_s": 0.055, "ops_per_s": 0.023, "op_p50_ms": 0.021, "op_p90_ms": 0.025, "scaling_efficiency": 0.022, "cpu_ms_per_op": 0.105, "peak_rss_mb": 0.023},
	wServiceJobs: {"setup_s": 0.065, "ops_per_s": 0.024, "op_p50_ms": 0.005, "job_short_p50_ms": 0.006, "job_short_p95_ms": 0.024, "job_adaptive_p50_ms": 0.020, "job_adaptive_p90_ms": 0.045, "cpu_ms_per_op": 0.066, "peak_rss_mb": 0.031},
	wDESPaper:    {"setup_s": 0.071, "ops_per_s": 0.033, "op_p50_ms": 0.041, "cpu_ms_per_op": 0.032, "peak_rss_mb": 0.019},
	wDESScale:    {"setup_s": 0.084, "ops_per_s": 0.048, "op_p50_ms": 0.046, "cpu_ms_per_op": 0.048, "peak_rss_mb": 0.012},
}

// minRunsForSpread is how many runs of a workload a document needs
// before its own spread is used instead of the recorded one.
const minRunsForSpread = 4

// readReports decodes a results document: one or more report objects,
// concatenated (run.sh's merged document) or alone.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	dec := json.NewDecoder(f)
	for {
		r := new(report)
		if err := dec.Decode(r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// values collects one end-to-end metric over a document's untraced
// runs of one workload; with seeds non-nil, over the runs at those seeds.
func values(reports []*report, workload, name string, seeds map[int64]bool) []float64 {
	var out []float64
	for _, r := range reports {
		if r.Workload != workload || r.Traced || (seeds != nil && !seeds[r.Seed]) {
			continue
		}
		if v := r.get(name); v.ok {
			out = append(out, v.v)
		}
	}
	return out
}

// commonSeeds are the seeds at which both documents ran a workload.
func commonSeeds(a, b []*report, workload string) map[int64]bool {
	inA := make(map[int64]bool)
	for _, r := range a {
		if r.Workload == workload && !r.Traced {
			inA[r.Seed] = true
		}
	}
	out := make(map[int64]bool)
	for _, r := range b {
		if r.Workload == workload && !r.Traced && inA[r.Seed] {
			out[r.Seed] = true
		}
	}
	return out
}

// absolute reports whether a metric is judged by its difference, not
// by a share of the baseline: adapt_gain_pct and failed_share repeat
// exactly at a seed, so they have no run-to-run spread either.
func (d def) absolute() bool { return d.name == "adapt_gain_pct" || d.name == "failed_share" }

// verdict judges one metric of one workload. worsening is the share of
// a's median by which b is worse (negative = better), or the
// difference for an absolute metric. A change inside the spread is
// "same" only where the spread is inside the bound; where it is wider,
// neither can be claimed.
func verdict(d def, bound, a, b, spread float64) (worsening float64, word string) {
	worsening = b - a
	if d.higher {
		worsening = a - b
	}
	if !d.absolute() {
		if a == 0 {
			return 0, "same"
		}
		worsening /= math.Abs(a)
	}
	switch {
	case worsening > bound && worsening > spread:
		return worsening, "worse"
	case worsening < 0 && -worsening > spread:
		return worsening, "better"
	case spread > bound:
		return worsening, "unresolved"
	}
	return worsening, "same"
}

// compareMain prints one row per workload x end-to-end metric and
// returns the exit code: 0 no regression, 1 at least one metric worse
// than its bound, 2 the documents could not be compared.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	var docs [2][]*report
	for i, path := range args {
		var err error
		if docs[i], err = readReports(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	return compareReports(docs[0], docs[1], w)
}

func compareReports(a, b []*report, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-20s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, workload := range workloadNames {
		for _, d := range endToEnd {
			if !d.definedOn(workload) {
				continue
			}
			var seeds map[int64]bool
			if d.name == "adapt_gain_pct" {
				// The simulated outcome is a function of the seed: only
				// runs at the same seeds say anything about the code.
				seeds = commonSeeds(a, b, workload)
			}
			va, vb := values(a, workload, d.name, seeds), values(b, workload, d.name, seeds)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-20s %12s %12s %8s %7s %7s  %s\n", workload, d.name,
					countOrDash(va), countOrDash(vb), "-", "-", "-", "missing")
				code = 1
				continue
			}
			spread := aaSpread[workload][d.name]
			if len(va) >= minRunsForSpread && len(vb) >= minRunsForSpread && !d.absolute() {
				spread = math.Max(iqrShare(va), iqrShare(vb))
			}
			ma, mb, bound := median(va), median(vb), d.boundFor(workload)
			worsening, word := verdict(d, bound, ma, mb, spread)
			if word == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-20s %12.6g %12.6g %+8.3f %7.3f %7.3f  %s\n",
				workload, d.name, ma, mb, worsening, bound, spread, word)
		}
	}
	return code
}

func countOrDash(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g", median(v))
}
