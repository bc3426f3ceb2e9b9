package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
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

// index makes the one pass over the source that a Log keeps. It reads
// a row's run and job straight from its line where rowKeys can, and
// decodes the line in full only where it cannot.
func (l *Log) index(rd io.Reader) error {
	l.byName = make(map[string]int)
	var seen []map[string]bool // per run: the jobs already listed
	return scanLines(rd, func(line []byte, start, end int64) {
		run, job, ok := rowKeys(line)
		if !ok {
			var row Row
			if json.Unmarshal(line, &row) != nil {
				l.Skipped++
				return
			}
			if row.Format != "" {
				return // format header
			}
			run, job = []byte(row.Run), []byte(row.Job)
		}
		i, ok := l.byName[string(run)]
		if !ok {
			name := string(run)
			i = len(l.runs)
			l.byName[name] = i
			l.runs = append(l.runs, runSpan{name: name, start: start})
			seen = append(seen, make(map[string]bool))
		}
		r := &l.runs[i]
		r.end = end
		if len(job) > 0 && !seen[i][string(job)] {
			seen[i][string(job)] = true
			r.jobs = append(r.jobs, string(job))
		}
	})
}

// rowKeys reads a row's run and job from its line without decoding
// it, where the line has the shape encode writes: Row's fields in
// their declared order, no format field, strings of printable ASCII
// with no escapes, a JSON number for "t", and a payload json.Valid
// accepts. json.Unmarshal decodes such a line into a row with the same
// run and job (FuzzRowKeys). ok is false for every other line, which
// the caller decodes in full, so Skipped counts what it counted.
func rowKeys(line []byte) (run, job []byte, ok bool) {
	b, ok := cut(line, "{")
	if !ok {
		return nil, nil, false
	}
	if run, b, ok = cutString(b, `"run":"`, `",`); !ok {
		return nil, nil, false
	}
	if _, b, ok = cutString(b, `"table":"`, `",`); !ok {
		return nil, nil, false
	}
	if b, ok = cut(b, `"t":`); !ok {
		return nil, nil, false
	}
	if b, ok = cutNumber(b); !ok {
		return nil, nil, false
	}
	if _, b, ok = cutString(b, `,"kind":"`, `"`); !ok {
		return nil, nil, false
	}
	if job, b, ok = cutString(b, `,"job":"`, `"`); !ok {
		return nil, nil, false
	}
	if data, hasData := cut(b, `,"data":`); hasData {
		// The payload runs to the closing brace: Valid refuses one that
		// is not a single JSON value, such as one followed by more
		// fields.
		if len(data) < 2 || data[len(data)-1] != '}' || !json.Valid(data[:len(data)-1]) {
			return nil, nil, false
		}
		b = data[len(data)-1:]
	}
	return run, job, string(b) == "}"
}

// cut is bytes.CutPrefix for a string prefix.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// cutString cuts an optional string field, written as prefix, value
// and suffix, from the front of b; an absent field reads as an empty
// value. ok is false where the value may not stand for itself: it
// holds an escape, a control byte or a non-ASCII byte, which
// json.Unmarshal would unescape or replace.
func cutString(b []byte, prefix, suffix string) (val, rest []byte, ok bool) {
	v, found := cut(b, prefix)
	if !found {
		return nil, b, true
	}
	end := bytes.IndexByte(v, '"')
	if end < 0 {
		return nil, b, false
	}
	for _, c := range v[:end] {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, b, false
		}
	}
	if rest, found = cut(v[end:], suffix); !found {
		return nil, b, false
	}
	return v[:end], rest, true
}

// cutNumber cuts a JSON number that fits a float64 from the front of b.
func cutNumber(b []byte) (rest []byte, ok bool) {
	i := 0
	digits := func() int {
		n := 0
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return b, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return b, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return b, false
		}
	}
	if _, err := strconv.ParseFloat(string(b[:i]), 64); err != nil {
		return b, false // out of float64's range: json.Unmarshal refuses it
	}
	return b[i:], true
}

// scanLines is the store's one line reader. It calls fn with each
// non-empty line of rd and the offsets in rd where the line starts and
// where the next begins.
func scanLines(rd io.Reader, fn func(line []byte, start, end int64)) error {
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
		if line := sc.Bytes(); len(line) > 0 {
			fn(line, start, next)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// scanRows calls fn with each row of rd that decodes, and the offsets
// of its line. The format header is passed over; so is, undecoded,
// every line that does not contain want, when want is set. A line that
// does not decode is counted in skipped.
func scanRows(rd io.Reader, want []byte, fn func(row Row, start, end int64)) (skipped int, err error) {
	err = scanLines(rd, func(line []byte, start, end int64) {
		if want != nil && !bytes.Contains(line, want) {
			return
		}
		var row Row
		if json.Unmarshal(line, &row) != nil {
			skipped++
			return
		}
		if row.Format != "" {
			return // format header
		}
		fn(row, start, end)
	})
	return skipped, err
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
