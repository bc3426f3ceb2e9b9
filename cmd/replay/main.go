// Command replay reconstructs past runs from the durable record store
// (internal/store, written by gridsim/satinrun/satind behind
// -record-db) or from a recorder's /events JSONL export, and renders
// them exactly the way internal/trace prints them live — so a run's
// objective-health/WAE trajectory and decision log can be inspected,
// and two runs can be diffed for regressions, long after the
// processes that produced them are gone.
//
// Usage:
//
//	replay -db run.db                      # list runs (and their jobs)
//	replay -db run.db -run ID -periods     # the run's period log, as printed live
//	replay -db run.db -run ID [-job J]     # summary + decision log (per job)
//	replay -db run.db -compare A,B         # diff two runs' trajectories
//	replay -events events.jsonl -periods   # same, from an /events export
//
// -compare exits 1 when run B regresses beyond -tolerance against run
// A (longer runtime, or worse mean/final objective health), so it can
// gate CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "record store written with -record-db")
		eventsIn  = flag.String("events", "", "JSONL export of a recorder's /events endpoint")
		runID     = flag.String("run", "", "run to replay (default: the last run in the store)")
		jobID     = flag.String("job", "", "restrict to one job of a multi-job (satind) run")
		periods   = flag.Bool("periods", false, "print only the period log, exactly as the live trace renders it")
		compare   = flag.String("compare", "", "two run IDs 'A,B': diff B's trajectory against A's")
		tolerance = flag.Float64("tolerance", 0.2, "compare: relative regression allowed before exiting 1")
	)
	flag.Parse()

	l, err := load(*dbPath, *eventsIn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(2)
	}
	if l.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "replay: skipped %d undecodable line(s) (torn write?)\n", l.Skipped)
	}

	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok || a == "" || b == "" {
			fmt.Fprintln(os.Stderr, "replay: -compare wants two run IDs: runA,runB")
			os.Exit(2)
		}
		regressed, err := compareRuns(os.Stdout, l, a, b, *jobID, *tolerance)
		if err == nil {
			err = l.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	runs := l.Runs()
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "replay: no runs recorded")
		os.Exit(2)
	}
	if *runID == "" && !*periods && *jobID == "" {
		// Bare listing: what's in the store.
		for _, run := range runs {
			jobs := l.Jobs(run)
			fmt.Printf("%-24s %4d events  %4d decisions  %4d samples",
				run, len(l.Events(run, "")), len(l.Decisions(run, "")), len(l.Samples(run)))
			if len(jobs) > 0 {
				fmt.Printf("  jobs: %s", strings.Join(jobs, " "))
			}
			fmt.Println()
		}
		if err := l.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(2)
		}
		return
	}
	run := *runID
	if run == "" {
		run = runs[len(runs)-1]
	}
	err = render(os.Stdout, l, run, *jobID, *periods)
	if err == nil {
		err = l.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(2)
	}
}

func load(dbPath, eventsIn string) (*store.Log, error) {
	switch {
	case dbPath != "" && eventsIn != "":
		return nil, fmt.Errorf("-db and -events are mutually exclusive")
	case dbPath != "":
		return store.ReadLog(dbPath)
	case eventsIn != "":
		f, err := os.Open(eventsIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return store.FromEventsJSONL(f, "export")
	default:
		return nil, fmt.Errorf("need -db or -events (see -h)")
	}
}

// periodsOf reconstructs a run's coordinator period log — the same
// []coord.PeriodRecord the live drivers hand to trace.WritePeriods.
func periodsOf(l *store.Log, run, job string) ([]coord.PeriodRecord, error) {
	var out []coord.PeriodRecord
	for _, row := range l.Events(run, job) {
		if row.Kind != "period" || row.Data == nil {
			continue
		}
		var pr coord.PeriodRecord
		if err := unmarshalRecord(row.Data, &pr); err != nil {
			return nil, fmt.Errorf("run %s: bad period record: %w", run, err)
		}
		out = append(out, pr)
	}
	return out, nil
}

// decisionsOf reconstructs a run's decision log.
func decisionsOf(l *store.Log, run, job string) ([]trace.Decision, error) {
	var out []trace.Decision
	for _, row := range l.Decisions(run, job) {
		if row.Data == nil {
			continue
		}
		var pr coord.PeriodRecord
		if err := unmarshalRecord(row.Data, &pr); err != nil {
			return nil, fmt.Errorf("run %s: bad decision record: %w", run, err)
		}
		out = append(out, trace.Decision{Time: row.Time, Job: row.Job, Record: pr})
	}
	return out, nil
}

// render prints one run: with periods set, ONLY the period table,
// byte-identical to the live trace.WritePeriods rendering (so CI can
// diff it against a live run's output); otherwise a summary plus the
// decision log.
func render(w io.Writer, l *store.Log, run, job string, periods bool) error {
	prs, err := periodsOf(l, run, job)
	if err != nil {
		return err
	}
	if periods {
		trace.WritePeriods(w, prs)
		return nil
	}
	ds, err := decisionsOf(l, run, job)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run %s: %d periods, %d decisions", run, len(prs), len(ds))
	if job != "" {
		fmt.Fprintf(w, " (job %s)", job)
	}
	fmt.Fprintln(w)
	if s := summarize(prs); s.count > 0 {
		fmt.Fprintf(w, "runtime %.0f s, health mean %.3f final %.3f, final nodes %d\n",
			s.runtime, s.meanHealth, s.finalHealth, s.finalNodes)
	}
	if len(ds) > 0 {
		trace.WriteDecisions(w, ds)
	}
	return nil
}

// summary condenses a trajectory into the numbers compare diffs.
type summary struct {
	count       int
	runtime     float64 // last period's timestamp
	meanHealth  float64
	finalHealth float64
	finalNodes  int
	actions     int
}

func summarize(prs []coord.PeriodRecord) summary {
	var s summary
	for _, pr := range prs {
		s.count++
		s.meanHealth += pr.WAE
		s.runtime = pr.Time
		s.finalHealth = pr.WAE
		s.finalNodes = pr.Nodes
		if pr.Action != "" && pr.Action != "none" {
			s.actions++
		}
	}
	if s.count > 0 {
		s.meanHealth /= float64(s.count)
	}
	return s
}

// compareRuns diffs run B against baseline run A and reports whether
// B regressed beyond tol: runtime grew, or mean/final objective
// health fell, by more than the tolerated fraction.
func compareRuns(w io.Writer, l *store.Log, runA, runB, job string, tol float64) (regressed bool, err error) {
	pa, err := periodsOf(l, runA, job)
	if err != nil {
		return false, err
	}
	pb, err := periodsOf(l, runB, job)
	if err != nil {
		return false, err
	}
	if len(pa) == 0 || len(pb) == 0 {
		return false, fmt.Errorf("compare: run %q has %d periods, run %q has %d — nothing to diff",
			runA, len(pa), runB, len(pb))
	}
	sa, sb := summarize(pa), summarize(pb)
	fmt.Fprintf(w, "%-14s %14s %14s %10s\n", "metric", runA, runB, "delta")
	row := func(name string, a, b float64, format string) {
		delta := "-"
		if a != 0 {
			delta = fmt.Sprintf("%+.1f%%", (b-a)/a*100)
		}
		fmt.Fprintf(w, "%-14s "+format+" "+format+" %10s\n", name, a, b, delta)
	}
	row("runtime_s", sa.runtime, sb.runtime, "%14.0f")
	row("health_mean", sa.meanHealth, sb.meanHealth, "%14.3f")
	row("health_final", sa.finalHealth, sb.finalHealth, "%14.3f")
	row("nodes_final", float64(sa.finalNodes), float64(sb.finalNodes), "%14.0f")
	row("actions", float64(sa.actions), float64(sb.actions), "%14.0f")

	var reasons []string
	if sa.runtime > 0 && sb.runtime > sa.runtime*(1+tol) {
		reasons = append(reasons, fmt.Sprintf("runtime %+.1f%% (tolerance %.0f%%)",
			(sb.runtime-sa.runtime)/sa.runtime*100, tol*100))
	}
	if sa.meanHealth > 0 && sb.meanHealth < sa.meanHealth*(1-tol) {
		reasons = append(reasons, fmt.Sprintf("mean health %+.1f%% (tolerance %.0f%%)",
			(sb.meanHealth-sa.meanHealth)/sa.meanHealth*100, tol*100))
	}
	if sa.finalHealth > 0 && sb.finalHealth < sa.finalHealth*(1-tol) {
		reasons = append(reasons, fmt.Sprintf("final health %+.1f%% (tolerance %.0f%%)",
			(sb.finalHealth-sa.finalHealth)/sa.finalHealth*100, tol*100))
	}
	if len(reasons) > 0 {
		fmt.Fprintf(w, "REGRESSION: %s vs %s: %s\n", runB, runA, strings.Join(reasons, "; "))
		return true, nil
	}
	fmt.Fprintf(w, "ok: %s within %.0f%% of %s\n", runB, tol*100, runA)
	return false, nil
}

// unmarshalRecord decodes a persisted period/decision payload. The
// live drivers store coord.PeriodRecord either bare or (historical
// shape) wrapped as {"job":..,"record":{..}}; accept both.
func unmarshalRecord(raw []byte, pr *coord.PeriodRecord) error {
	var wrapped struct {
		Record *coord.PeriodRecord `json:"record"`
	}
	if err := json.Unmarshal(raw, &wrapped); err == nil && wrapped.Record != nil {
		*pr = *wrapped.Record
		return nil
	}
	return json.Unmarshal(raw, pr)
}
