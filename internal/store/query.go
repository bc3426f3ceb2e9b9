package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/record"
)

// maxLine bounds one row's encoded length on the read side.
const maxLine = 1 << 24

// Log is the read side of the datastore: an index over one store's
// bytes, built in one streaming pass. It keeps each run's name, its job
// IDs and the byte span of its rows, never a row; Events, Decisions and
// Samples re-read the span of the run they ask about. A Log is a
// snapshot of its source as ReadLog found it: no query reads past the
// last row the index saw, so rows a writer appends later are not in it.
// Queries are safe for concurrent use.
type Log struct {
	Path    string
	Skipped int // undecodable lines (torn final write, corruption) skipped

	mem    []byte // the rendered rows of an export, the source when Path is ""
	runs   []runSpan
	byName map[string]int // run name → index into runs

	errMu sync.Mutex
	err   error
}

// runSpan indexes one run: its jobs in first-seen order ("" rows —
// service-level events — name none), and the bytes from its first row's
// start to its last row's end. Other runs' rows may lie in between.
type runSpan struct {
	name       string
	jobs       []string
	start, end int64
}

// ReadLog indexes the store at path. Undecodable lines — a torn final
// write after a crash, or corruption — are skipped and counted in
// Skipped rather than failing the whole load: a durable history with
// one bad line is still a history. The Log reopens path for each query
// and holds no file open between them.
func ReadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{Path: path}
	// The size read here is the snapshot: a writer appending meanwhile
	// adds nothing to the index, and a line it has half written is a
	// torn tail like any other.
	return l, l.index(io.NewSectionReader(f, 0, st.Size()))
}

// FromEventsJSONL builds a Log from a recorder's /events JSONL export
// (one record.Event per line, possibly led by a {"kind":"dropped"}
// marker), attributing every row to the given run name — so cmd/replay
// can reconstruct runs from either a store file or a plain export. The
// export is rendered as store rows in memory, at most a recorder ring's
// worth, and indexed like a file.
func FromEventsJSONL(rd io.Reader, run string) (*Log, error) {
	var buf bytes.Buffer
	l := &Log{}
	skipped, err := scanRows(rd, nil, func(row Row, _, _ int64) {
		if row.Kind == "dropped" && row.Data == nil {
			return // ring-wraparound marker, not an event
		}
		row.Run, row.Table = run, TableEvent
		if row.Kind == "decision" {
			row.Table = TableDecision
		}
		b, err := json.Marshal(row)
		if err != nil {
			l.Skipped++
			return
		}
		buf.Write(b)
		buf.WriteByte('\n')
	})
	l.Skipped += skipped
	l.mem = buf.Bytes()
	if ierr := l.index(bytes.NewReader(l.mem)); err == nil {
		err = ierr
	}
	return l, err
}

// index makes the one pass over the source that a Log keeps.
func (l *Log) index(rd io.Reader) error {
	l.byName = make(map[string]int)
	type runJob struct {
		run int
		job string
	}
	seen := make(map[runJob]bool)
	skipped, err := scanRows(rd, nil, func(row Row, start, end int64) {
		i, ok := l.byName[row.Run]
		if !ok {
			i = len(l.runs)
			l.byName[row.Run] = i
			l.runs = append(l.runs, runSpan{name: row.Run, start: start})
		}
		r := &l.runs[i]
		r.end = end
		if row.Job != "" && !seen[runJob{i, row.Job}] {
			seen[runJob{i, row.Job}] = true
			r.jobs = append(r.jobs, row.Job)
		}
	})
	l.Skipped += skipped
	return err
}

// scanRows is the store's one line reader. It reads store lines from
// rd and calls fn with each row that decodes and the offsets in rd
// where its line starts and where the next begins. Blank lines and the
// format header are passed over; so is, undecoded, every line that does
// not contain want, when want is set. A line that does not decode is
// counted in skipped.
func scanRows(rd io.Reader, want []byte, fn func(row Row, start, end int64)) (skipped int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, maxLine)
	var start, next int64
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			start, next = next, next+int64(adv)
		}
		return adv, tok, err
	})
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || (want != nil && !bytes.Contains(line, want)) {
			continue
		}
		var row Row
		if json.Unmarshal(line, &row) != nil {
			skipped++
			continue
		}
		if row.Format != "" {
			continue // format header
		}
		fn(row, start, next)
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("store: %w", err)
	}
	return skipped, nil
}

// Runs lists the run IDs present, in first-seen order.
func (l *Log) Runs() []string {
	var out []string
	for _, r := range l.runs {
		if r.name != "" {
			out = append(out, r.name)
		}
	}
	return out
}

// Jobs lists the job IDs a run's rows are attributed to, in
// first-seen order ("" rows — service-level events — are excluded).
func (l *Log) Jobs(run string) []string {
	if i, ok := l.byName[run]; ok {
		return slices.Clone(l.runs[i].jobs)
	}
	return nil
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

// Err returns the first error a query met re-reading the source, such
// as a store file removed since ReadLog. A query that fails answers
// with the rows it read before the failure.
func (l *Log) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

func (l *Log) table(table, run, job string) []Row {
	i, ok := l.byName[run]
	if !ok {
		return nil
	}
	span := l.runs[i]
	var out []Row
	keep := func(r Row, _, _ int64) {
		if r.Table == table && r.Run == run && (job == "" || r.Job == job) {
			out = append(out, r)
		}
	}
	// Lines without the field the answer needs, as encode writes it,
	// are passed over undecoded.
	want := field("table", table)
	if job != "" {
		want = field("job", job)
	}
	var err error
	if l.Path == "" {
		_, err = scanRows(bytes.NewReader(l.mem[span.start:span.end]), want, keep)
	} else if f, ferr := os.Open(l.Path); ferr != nil {
		err = fmt.Errorf("store: %w", ferr)
	} else {
		_, err = scanRows(io.NewSectionReader(f, span.start, span.end-span.start), want, keep)
		f.Close()
	}
	if err != nil {
		l.errMu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.errMu.Unlock()
	}
	return out
}

// field is a string-valued field of a row as encode writes it.
func field(name, value string) []byte {
	v, _ := json.Marshal(value) // a string always marshals
	return append([]byte(`"`+name+`":`), v...)
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
	var out []record.Event
	_, err = scanRows(f, field("job", job), func(row Row, _, _ int64) {
		if row.Run != db.run || row.Job != job {
			return
		}
		if row.Kind == "job-submitted" {
			out = out[:0]
		}
		out = append(out, record.Event{Time: row.Time, Kind: row.Kind, Job: row.Job, Data: row.Data})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
