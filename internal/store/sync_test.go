package store

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// withSyncEvery shortens the writer's sync interval for the stores one
// test opens.
func withSyncEvery(t testing.TB, d time.Duration) {
	old := syncEvery
	syncEvery = d
	t.Cleanup(func() { syncEvery = old })
}

// putBatch puts one event and waits until the writer has handed it to
// the file, so every put is a batch of its own.
func putBatch(db *DB, written *obs.Counter, i int) {
	want := written.Value() + 1
	db.PutEvent(record.Event{Time: float64(i), Kind: "iteration"})
	for written.Value() < want {
		runtime.Gosched()
	}
}

// TestSyncsBoundedByInterval: the writer syncs at most once an interval
// however many batches it writes, a row reads back before its sync, a
// store left dirty is synced within two intervals, and an idle one is
// not synced again.
func TestSyncsBoundedByInterval(t *testing.T) {
	const every, rows = 200 * time.Millisecond, 200
	withSyncEvery(t, every)
	path := tmpDB(t)
	reg := obs.NewRegistry()
	start := time.Now()
	db, err := Open(path, "r", reg)
	if err != nil {
		t.Fatal(err)
	}
	written, syncs := reg.Counter("store/rows_written"), reg.Counter("store/syncs")
	opened := syncs.Value() // Open's own sync
	for i := 0; i < rows; i++ {
		putBatch(db, written, i)
	}
	lastBatch := time.Now()
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Events("r", "")); got != rows {
		t.Fatalf("ReadLog while open read %d events, want %d", got, rows)
	}
	elapsed, burst := time.Since(start), syncs.Value()
	if max := opened + 1 + uint64(elapsed/every); burst > max {
		t.Fatalf("%d single-row batches in %v cost %d syncs, want at most %d", rows, elapsed, burst-opened, max-opened)
	}
	t.Logf("%d batches and a read in %v, %d syncs", rows, elapsed, burst-opened)

	// The last batch is dirty unless it synced itself, which only a burst
	// that outlasted an interval can do.
	deadline := lastBatch.Add(2 * every)
	for syncs.Value() == burst && time.Now().Before(deadline) {
		time.Sleep(every / 20)
	}
	idle := syncs.Value()
	if burst == opened && idle != burst+1 {
		t.Fatalf("a dirty store idle for two intervals synced %d times, want 1", idle-burst)
	}
	if idle > burst+1 {
		t.Fatalf("an idle store synced %d times, want at most 1", idle-burst)
	}
	time.Sleep(2 * every)
	if got := syncs.Value(); got != idle {
		t.Fatalf("a synced idle store synced %d more times", got-idle)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Value(); got != idle+1 {
		t.Fatalf("Close synced %d times, want 1", got-idle)
	}
	if l, err = ReadLog(path); err != nil {
		t.Fatal(err)
	}
	if got := len(l.Events("r", "")); got != rows || l.Skipped != 0 {
		t.Fatalf("after Close: %d events, %d skipped, want %d and 0", got, l.Skipped, rows)
	}
}

// failSync passes writes through and fails every sync, as a failing
// disk would.
type failSync struct{ file }

var errSync = errors.New("input/output error")

func (failSync) Sync() error { return errSync }

// TestSyncErrorCounted: a failed sync is a counted write error, the
// writer writes on, and Close returns the error of its final sync.
func TestSyncErrorCounted(t *testing.T) {
	withSyncEvery(t, time.Millisecond)
	path := tmpDB(t)
	reg := obs.NewRegistry()
	db, err := Open(path, "r", reg)
	if err != nil {
		t.Fatal(err)
	}
	db.out = failSync{db.f} // before the first put, which orders it before the writer's use
	db.PutEvent(record.Event{Time: 1, Kind: "before"})
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("store/write_err").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the failing sync was never made")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 2; i <= 4; i++ {
		db.PutEvent(record.Event{Time: float64(i), Kind: "after"})
	}
	if err := db.Close(); !errors.Is(err, errSync) {
		t.Fatalf("Close = %v, want the final sync's error", err)
	}
	if got := reg.Counter("store/rows_written").Value(); got != 4 {
		t.Fatalf("rows_written = %d, want 4", got)
	}
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := l.Events("r", "")
	if len(evs) != 4 || l.Skipped != 0 || evs[1].Kind != "after" || evs[3].Time != 4 {
		t.Fatalf("events = %+v (%d skipped), want the one before the failed sync and the three after", evs, l.Skipped)
	}
}

// BenchmarkWriterBatches writes one row per batch, each waited on until
// the writer has handed it to the file, and reports what a batch costs
// and how many syncs it brings (Open's and Close's not counted).
func BenchmarkWriterBatches(b *testing.B) {
	reg := obs.NewRegistry()
	db, err := Open(filepath.Join(b.TempDir(), "run.db"), "bench", reg)
	if err != nil {
		b.Fatal(err)
	}
	written, syncs := reg.Counter("store/rows_written"), reg.Counter("store/syncs")
	opened := syncs.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putBatch(db, written, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
	b.ReportMetric(float64(syncs.Value()-opened)/float64(b.N), "syncs/batch")
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
}
