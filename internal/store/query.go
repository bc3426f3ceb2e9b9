package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
)

// maxLine bounds one row's encoded length on the read side.
const maxLine = 1 << 24

// Log is one store file loaded for querying: the read side of the
// datastore. Rows are in file (i.e. write) order.
type Log struct {
	Path    string
	Rows    []Row
	Skipped int // undecodable lines (torn final write, corruption) skipped
}

// ReadLog loads the store at path.
func ReadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	l, err := ReadLogFrom(f)
	if l != nil {
		l.Path = path
	}
	return l, err
}

// ReadLogFrom loads a store from any reader. Undecodable lines — a
// torn final write after a crash, or corruption — are skipped and
// counted in Skipped rather than failing the whole load: a durable
// history with one bad tail line is still a history.
func ReadLogFrom(rd io.Reader) (*Log, error) {
	l := &Log{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			l.Skipped++
			continue
		}
		if row.Format != "" {
			continue // format header
		}
		l.Rows = append(l.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return l, fmt.Errorf("store: %w", err)
	}
	return l, nil
}

// FromEventsJSONL builds a Log from a recorder's /events JSONL export
// (one record.Event per line, possibly led by a {"kind":"dropped"}
// marker), attributing every row to the given run name — so cmd/replay
// can reconstruct runs from either a store file or a plain export.
func FromEventsJSONL(rd io.Reader, run string) (*Log, error) {
	l := &Log{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Time  float64         `json:"t"`
			Kind  string          `json:"kind"`
			Job   string          `json:"job"`
			Count uint64          `json:"count"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			l.Skipped++
			continue
		}
		if ev.Kind == "dropped" && ev.Data == nil {
			continue // ring-wraparound marker, not an event
		}
		table := TableEvent
		if ev.Kind == "decision" {
			table = TableDecision
		}
		l.Rows = append(l.Rows, Row{
			Run: run, Table: table, Time: ev.Time, Kind: ev.Kind, Job: ev.Job, Data: ev.Data,
		})
	}
	if err := sc.Err(); err != nil {
		return l, fmt.Errorf("store: %w", err)
	}
	return l, nil
}

// Runs lists the run IDs present, in first-seen order.
func (l *Log) Runs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range l.Rows {
		if r.Run != "" && !seen[r.Run] {
			seen[r.Run] = true
			out = append(out, r.Run)
		}
	}
	return out
}

// Jobs lists the job IDs a run's rows are attributed to, in
// first-seen order ("" rows — service-level events — are excluded).
func (l *Log) Jobs(run string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range l.Rows {
		if r.Run == run && r.Job != "" && !seen[r.Job] {
			seen[r.Job] = true
			out = append(out, r.Job)
		}
	}
	return out
}

// Events returns a run's event-table rows in write order. job filters
// to one job's rows; "" returns every event including service-level
// ones.
func (l *Log) Events(run, job string) []Row {
	return l.table(TableEvent, run, job)
}

// Decisions returns a run's adaptation decisions in write order,
// optionally filtered to one job.
func (l *Log) Decisions(run, job string) []Row {
	return l.table(TableDecision, run, job)
}

// Samples returns a run's registry samples, decoded.
func (l *Log) Samples(run string) []record.Sample {
	var out []record.Sample
	for _, r := range l.table(TableSample, run, "") {
		var d sampleData
		if r.Data != nil && json.Unmarshal(r.Data, &d) != nil {
			continue
		}
		out = append(out, record.Sample{Time: r.Time, Counters: d.Counters, Gauges: d.Gauges})
	}
	return out
}

func (l *Log) table(table, run, job string) []Row {
	var out []Row
	for _, r := range l.Rows {
		if r.Table != table || r.Run != run {
			continue
		}
		if job != "" && r.Job != job {
			continue
		}
		out = append(out, r)
	}
	return out
}

// JobEvents returns the rows of one job in the store's own run, oldest
// first, as events whose Data is the raw JSON payload. It streams the
// file and keeps only that job's rows, so a query costs one read of the
// file and memory for one job. Job IDs restart at job-001 when a daemon
// restarts on the same run, so the newest job-submitted row for the ID
// starts the answer over. The writer flushes every batch, so a job that
// finished a while ago is on disk; a row still queued, or dropped on a
// full queue, is missing from the answer.
func (db *DB) JobEvents(job string) ([]record.Event, error) {
	f, err := os.Open(db.path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	id, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	field := append([]byte(`"job":`), id...) // the job's rows as writeRow encodes them
	var out []record.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, field) {
			continue // another job's row, or none's: skip it undecoded
		}
		var row Row
		if json.Unmarshal(line, &row) != nil || row.Run != db.run || row.Job != job {
			continue
		}
		if row.Kind == "job-submitted" {
			out = out[:0]
		}
		out = append(out, record.Event{Time: row.Time, Kind: row.Kind, Job: row.Job, Data: row.Data})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return out, nil
}
