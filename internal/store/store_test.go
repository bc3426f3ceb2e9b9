package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
)

func tmpDB(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.db")
}

func TestRoundTrip(t *testing.T) {
	path := tmpDB(t)
	reg := obs.NewRegistry()
	db, err := Open(path, "runA", reg)
	if err != nil {
		t.Fatal(err)
	}
	db.PutEvent(record.Event{Time: 1, Kind: "period", Data: map[string]any{"WAE": 0.5, "Nodes": 12}})
	db.PutEvent(record.Event{Time: 2, Kind: "decision", Job: "job-001", Data: map[string]any{"Action": "add"}})
	db.PutEvent(record.Event{Time: 3, Kind: "job-state", Job: "job-001", Data: map[string]any{"to": "running"}})
	db.PutSample(record.Sample{Time: 2.5, Counters: map[string]uint64{"a/b": 7}, Gauges: map[string]float64{"g": 1.5}})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store/rows_written").Value(); got < 4 {
		t.Fatalf("rows_written = %d, want >= 4", got)
	}

	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Skipped != 0 {
		t.Fatalf("skipped %d lines on a clean file", l.Skipped)
	}
	if runs := l.Runs(); len(runs) != 1 || runs[0] != "runA" {
		t.Fatalf("runs = %v", runs)
	}
	evs := l.Events("runA", "")
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2 (decision must be in its own table): %+v", len(evs), evs)
	}
	if evs[0].Kind != "period" || evs[0].Time != 1 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	ds := l.Decisions("runA", "job-001")
	if len(ds) != 1 || ds[0].Job != "job-001" {
		t.Fatalf("decisions = %+v", ds)
	}
	var act struct{ Action string }
	if err := json.Unmarshal(ds[0].Data, &act); err != nil || act.Action != "add" {
		t.Fatalf("decision payload = %s (%v)", ds[0].Data, err)
	}
	ss := l.Samples("runA")
	if len(ss) != 1 || ss[0].Counters["a/b"] != 7 || ss[0].Gauges["g"] != 1.5 {
		t.Fatalf("samples = %+v", ss)
	}
	if jobs := l.Jobs("runA"); len(jobs) != 1 || jobs[0] != "job-001" {
		t.Fatalf("jobs = %v", jobs)
	}
}

func TestAppendAccumulatesRuns(t *testing.T) {
	path := tmpDB(t)
	for _, run := range []string{"first", "second"} {
		db, err := Open(path, run, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		db.PutEvent(record.Event{Time: 1, Kind: "period"})
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := l.Runs()
	if len(runs) != 2 || runs[0] != "first" || runs[1] != "second" {
		t.Fatalf("runs = %v", runs)
	}
	if len(l.Events("second", "")) != 1 {
		t.Fatalf("second run's events = %+v", l.Events("second", ""))
	}
}

// A full queue must drop-and-count, never block the producer: the
// recorder's sink calls run inside coordinator observer callbacks.
func TestFullQueueDropsNotBlocks(t *testing.T) {
	path := tmpDB(t)
	reg := obs.NewRegistry()
	db, err := Open(path, "r", reg, Options{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Close stops the writer; with nobody draining, the second put
	// must take the drop path immediately (a blocked put hangs the
	// test, which is the regression this guards).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db.PutEvent(record.Event{Time: 1, Kind: "e"})
	db.PutEvent(record.Event{Time: 2, Kind: "e"})
	if got := reg.Counter("store/dropped_rows").Value(); got != 1 {
		t.Fatalf("dropped_rows = %d, want 1", got)
	}
}

func TestTornWriteRecovery(t *testing.T) {
	path := tmpDB(t)
	db, err := Open(path, "r", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	db.PutEvent(record.Event{Time: 1, Kind: "period"})
	db.PutEvent(record.Event{Time: 2, Kind: "period"})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"run":"r","table":"event","t":3,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the torn tail)", l.Skipped)
	}
	if got := len(l.Events("r", "")); got != 2 {
		t.Fatalf("events after torn write = %d, want 2", got)
	}
}

func TestFromEventsJSONL(t *testing.T) {
	in := `{"kind":"dropped","count":3}
{"t":1,"kind":"period","data":{"WAE":0.4}}
{"t":2,"kind":"decision","job":"j1","data":{"Action":"add"}}
`
	l, err := FromEventsJSONL(strings.NewReader(in), "export")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Events("export", "")) != 1 || len(l.Decisions("export", "j1")) != 1 {
		t.Fatalf("events = %+v, decisions = %+v", l.Events("export", ""), l.Decisions("export", "j1"))
	}
}

// The sink write path runs inside the coordinator's observer callback:
// it must stay allocation-bounded and must not marshal JSON inline
// (that happens on the writer goroutine).
func TestPutAllocsBounded(t *testing.T) {
	path := tmpDB(t)
	db, err := Open(path, "r", obs.NewRegistry(), Options{QueueSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ev := record.Event{Time: 1, Kind: "period", Job: "j", Data: map[string]any{"WAE": 0.5}}
	allocs := testing.AllocsPerRun(1000, func() { db.PutEvent(ev) })
	if allocs > 1 {
		t.Fatalf("PutEvent allocates %.1f/op, want <= 1", allocs)
	}
}

// TestJobEventsNewestSubmission: a per-job lookup keeps its own run and
// job only, and a daemon restarted on the same run, whose IDs start at
// job-001 again, answers with the newest job of that ID.
func TestJobEventsNewestSubmission(t *testing.T) {
	path := tmpDB(t)
	write := func(run string, evs ...record.Event) *DB {
		t.Helper()
		db, err := Open(path, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			db.PutEvent(e)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	first := write("A",
		record.Event{Time: 1, Kind: "job-submitted", Job: "job-001", Data: map[string]any{"app": "fib"}},
		record.Event{Time: 2, Kind: "job-result", Job: "job-001", Data: map[string]any{"state": "done"}},
		// A payload naming another job is not that job's row.
		record.Event{Time: 3, Kind: "job-submitted", Job: "job-002", Data: map[string]any{"job": "job-001"}},
	)
	write("B", record.Event{Time: 1, Kind: "job-submitted", Job: "job-001", Data: map[string]any{"app": "tsp"}})
	restarted := write("A",
		record.Event{Time: 1, Kind: "job-submitted", Job: "job-001", Data: map[string]any{"app": "nqueens"}},
		record.Event{Time: 2, Kind: "job-state", Job: "job-001", Data: map[string]any{"to": "provisioning"}},
	)

	evs, err := restarted.JobEvents("job-001")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != "job-submitted" || evs[1].Kind != "job-state" {
		t.Fatalf("restarted run's job-001 = %+v, want its own submission and state", evs)
	}
	var spec struct{ App string }
	if err := json.Unmarshal(evs[0].Data.(json.RawMessage), &spec); err != nil || spec.App != "nqueens" {
		t.Fatalf("newest submission's payload = %s (%v)", evs[0].Data, err)
	}
	if evs, err := first.JobEvents("job-002"); err != nil || len(evs) != 1 {
		t.Fatalf("job-002 = %+v (%v), want its one row", evs, err)
	}
	if evs, err := first.JobEvents("job-009"); err != nil || len(evs) != 0 {
		t.Fatalf("job-009 = %+v (%v), want no rows", evs, err)
	}
}
