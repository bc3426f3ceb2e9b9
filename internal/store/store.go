// Package store is the durable backend behind internal/record's Sink
// seam: a single-file, append-only datastore holding a run's events,
// registry samples and per-job decision records, so a run's observed
// trajectory survives the process that produced it and can be
// replayed or compared against later runs (cmd/replay).
//
// It follows the embedded-datastore idiom: one writer goroutine owns
// the file and is fed through a bounded queue that NEVER blocks the
// producer — a full queue is a counted drop, not a stalled
// coordinator callback; typed query helpers per table form the read
// side; and the store carries obs telemetry on itself (rows written,
// syncs, queue depth, dropped rows, write errors, flush latency).
//
// The writer hands each batch to the file as it arrives but syncs the
// file at most once a second, and at Close. A killed process loses no
// row the writer has handed over (it is in the page cache, and ReadLog
// reads it); a kernel crash or power loss loses the queued rows, which
// no Put ever waited on, and at most the last second of written ones.
//
// On-disk format ("recdb/1"): one JSON object per line — a header row
// naming the format, a run-open row per Open, then one row per record
// with its table (event | sample | decision), run, timestamp,
// optional kind/job, and the raw payload. The format is deliberately
// dumb: it survives torn writes (the reader skips each undecodable
// line, counts it in Log.Skipped and reads on; a writer whose write
// failed, or an Open that finds the file ending mid-line, ends the torn
// line before writing on), it appends across process restarts so one
// file accumulates many runs for cross-run regression comparison, and
// any JSONL tooling (jq,
// `sqlite3 .import`, a spreadsheet) can consume it directly. A real
// SQLite backend would slot behind the same record.Sink interface and
// query helpers, but this build is dependency-free by policy, so the
// helpers here are the query layer.
//
// The read side streams. ReadLog makes one pass over the file and keeps
// an index (each run's name, job IDs and byte span), not the rows; a
// query re-reads the span of its run. A Log is a snapshot of the file
// as it was at ReadLog: no query reads past the end the index recorded,
// so rows a live writer appends afterwards are not in it.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// Table names. Events carrying an adaptation decision are routed to
// their own table so the per-job decision log is a first-class query.
const (
	TableEvent    = "event"
	TableSample   = "sample"
	TableDecision = "decision"
)

// formatHeader is the first line of every new file.
const formatHeader = "recdb/1"

// writeChunk is the encoded size past which the writer hands a batch
// to the file before the batch ends.
const writeChunk = 64 << 10

// syncEvery is the shortest time between two syncs of the file by the
// writer; Close syncs regardless. Tests shorten it.
var syncEvery = time.Second

// file is what the writer needs of its file: *os.File, or in tests a
// failing file in front of it.
type file interface {
	io.Writer
	Sync() error
}

// Row is one persisted record — the store's wire-and-disk schema.
type Row struct {
	Format string          `json:"format,omitempty"` // header row only
	Run    string          `json:"run,omitempty"`
	Table  string          `json:"table,omitempty"`
	Time   float64         `json:"t"`
	Kind   string          `json:"kind,omitempty"`
	Job    string          `json:"job,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// pending defers JSON marshalling to the writer goroutine so the
// producer-side Put path stays allocation-bounded.
type pending struct {
	table string
	t     float64
	kind  string
	job   string
	data  any
}

// Options tunes a store.
type Options struct {
	// QueueSize bounds the writer queue (default 4096). Puts beyond a
	// full queue are dropped and counted, never blocked on.
	QueueSize int
}

// DB is one open, append-mode store. Put* methods are safe for
// concurrent use and never block; Close drains the queue, flushes and
// syncs the file.
type DB struct {
	path string
	run  string
	f    *os.File
	out  file   // the file; tests put a failing one in front of it
	buf  []byte // encoded lines the file has not been handed yet
	torn bool   // a failed write left the file ending mid-line

	// Owned by the writer goroutine once Open returns.
	every  time.Duration // the least time between the writer's syncs
	dirty  bool          // the file holds rows written since the last sync
	synced time.Time     // when the last sync started

	queue chan pending
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	closeMu  sync.Mutex
	closeErr error

	rows     *obs.Counter
	syncs    *obs.Counter
	dropped  *obs.Counter
	writeErr *obs.Counter
	depth    *obs.Gauge
	flushLat *obs.Histogram
}

// Open appends to (or creates) the store at path and opens a run named
// run (empty = a UTC timestamp). reg receives the store's telemetry:
// store/rows_written, store/syncs, store/dropped_rows, store/write_err
// counters, the store/queue_depth gauge and the store/flush_latency
// histogram.
func Open(path, run string, reg *obs.Registry, opts ...Options) (*DB, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if run == "" {
		run = time.Now().UTC().Format("20060102-150405")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	db := &DB{
		path:     path,
		run:      run,
		f:        f,
		out:      f,
		every:    syncEvery,
		queue:    make(chan pending, o.QueueSize),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		rows:     reg.Counter("store/rows_written"),
		syncs:    reg.Counter("store/syncs"),
		dropped:  reg.Counter("store/dropped_rows"),
		writeErr: reg.Counter("store/write_err"),
		depth:    reg.Gauge("store/queue_depth"),
		flushLat: reg.Histogram("store/flush_latency", obs.LatencyBuckets),
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if st.Size() == 0 {
		if err := db.encode(Row{Format: formatHeader}); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// A crash mid-write leaves the file ending mid-line; the run-open
		// row must not be appended to that line and lost with it.
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		db.torn = last[0] != '\n'
	}
	// The run-open row anchors the run's virtual/relative time axis to
	// a wall-clock instant, for humans listing runs later.
	if err := db.encode(Row{
		Run: run, Table: "run", Kind: "open",
		Data: json.RawMessage(fmt.Sprintf(`{"started":%q}`, time.Now().UTC().Format(time.RFC3339))),
	}); err != nil {
		f.Close()
		return nil, err
	}
	if _, _, err := db.write(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := db.sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	go db.writer()
	return db, nil
}

// PutEvent implements record.Sink: events stream into the event table,
// adaptation decisions into their own. Never blocks; a full queue is
// a counted drop.
func (db *DB) PutEvent(e record.Event) {
	table := TableEvent
	if e.Kind == "decision" {
		table = TableDecision
	}
	db.put(pending{table: table, t: e.Time, kind: e.Kind, job: e.Job, data: e.Data})
}

// PutSample implements record.Sink for registry snapshots.
func (db *DB) PutSample(s record.Sample) {
	db.put(pending{table: TableSample, t: s.Time, data: sampleData{s.Counters, s.Gauges}})
}

// sampleData is the persisted payload of one registry sample.
type sampleData struct {
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

func (db *DB) put(p pending) {
	select {
	case db.queue <- p:
		db.depth.Set(float64(len(db.queue)))
	default:
		db.dropped.Inc()
	}
}

// Close drains whatever the queue holds, flushes, syncs and closes
// the file. Idempotent; safe to call from both a signal-drain path
// and a deferred natural exit.
func (db *DB) Close() error {
	db.once.Do(func() { close(db.stop) })
	<-db.done
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	return db.closeErr
}

// writer is the single goroutine that owns the file: it drains the
// queue in batches, marshals off the producers' path, and hands each
// batch to the file with the flush latency observed. It syncs at most
// once per db.every: a timer, armed only while the file is dirty, syncs
// what a batch left unsynced, so an idle store never wakes.
func (db *DB) writer() {
	defer close(db.done)
	timer := time.NewTimer(db.every)
	timer.Stop()
	armed := false
	for {
		select {
		case p := <-db.queue:
			db.writeBatch(p)
		case <-timer.C:
			armed = false
			db.syncDue()
		case <-db.stop:
			timer.Stop()
			for {
				select {
				case p := <-db.queue:
					db.writeBatch(p)
				default:
					db.closeMu.Lock()
					if err := db.sync(); err != nil {
						db.closeErr = err
					}
					if err := db.f.Close(); err != nil && db.closeErr == nil {
						db.closeErr = err
					}
					db.closeMu.Unlock()
					return
				}
			}
		}
		if db.dirty && !armed {
			timer.Reset(db.every - time.Since(db.synced))
			armed = true
		}
	}
}

// writeBatch encodes first plus everything currently queued (bounded)
// and hands it to the file, which it syncs only if the last sync is at
// least db.every old.
func (db *DB) writeBatch(first pending) {
	start := time.Now()
	db.writePending(first)
drain:
	for i := 0; i < cap(db.queue); i++ {
		select {
		case p := <-db.queue:
			db.writePending(p)
			if len(db.buf) >= writeChunk {
				db.emit()
			}
		default:
			break drain
		}
	}
	db.emit()
	db.dirty = true
	db.syncDue()
	db.depth.Set(float64(len(db.queue)))
	db.flushLat.Observe(time.Since(start).Seconds())
}

// syncDue syncs a dirty file whose last sync is at least db.every old.
func (db *DB) syncDue() {
	if db.dirty && time.Since(db.synced) >= db.every {
		db.sync()
	}
}

// sync is the store's one path to fsync. A failed sync is counted as a
// write error; the writer writes on.
func (db *DB) sync() error {
	db.synced, db.dirty = time.Now(), false
	db.syncs.Inc()
	err := db.out.Sync()
	if err != nil {
		db.writeErr.Inc()
	}
	return err
}

func (db *DB) writePending(p pending) {
	row := Row{Run: db.run, Table: p.table, Time: p.t, Kind: p.kind, Job: p.job}
	if p.data != nil {
		raw, err := json.Marshal(p.data)
		if err != nil {
			// The row still lands (time axis intact); the unmarshalable
			// payload is counted, never silently vanished.
			db.writeErr.Inc()
		} else {
			row.Data = raw
		}
	}
	if err := db.encode(row); err != nil {
		db.writeErr.Inc()
	}
}

// emit hands the encoded rows to the file. A failed write, a full disk
// say, costs the rows it did not finish, counted as dropped, and
// nothing after them: the next write goes to the file again.
func (db *DB) emit() {
	done, lines, err := db.write()
	db.rows.Add(uint64(done))
	if err != nil {
		db.writeErr.Inc()
		db.dropped.Add(uint64(lines - done))
	}
}

func (db *DB) encode(row Row) error {
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	db.buf = append(append(db.buf, b...), '\n')
	return nil
}

var newline = []byte{'\n'}

// write hands the encoded lines to the file in one call and empties the
// buffer. It returns how many of the lines the file took whole, of how
// many. A short write leaves the file ending mid-line, so the next call
// first ends that line: one undecodable line, and the rows after it
// read back.
func (db *DB) write() (done, lines int, err error) {
	if len(db.buf) == 0 {
		return 0, 0, nil
	}
	lines = bytes.Count(db.buf, newline)
	defer func() {
		db.buf = db.buf[:0]
		if cap(db.buf) > 4*writeChunk {
			db.buf = nil // one outsized row does not pin its buffer
		}
	}()
	if db.torn {
		if _, err := db.out.Write(newline); err != nil {
			return 0, lines, err
		}
		db.torn = false
	}
	n, err := db.out.Write(db.buf)
	db.torn = n > 0 && db.buf[n-1] != '\n'
	return bytes.Count(db.buf[:n], newline), lines, err
}
