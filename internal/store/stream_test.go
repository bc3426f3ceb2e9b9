package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

func jobID(i int) string { return fmt.Sprintf("job-%03d", i) }

// fill writes rows events spread round-robin over jobs jobs through a
// DB, pacing the puts so that none is dropped on a full queue.
func fill(t testing.TB, path, run string, rows, jobs int) {
	t.Helper()
	reg := obs.NewRegistry()
	db, err := Open(path, run, reg)
	if err != nil {
		t.Fatal(err)
	}
	written := reg.Counter("store/rows_written")
	for i := 0; i < rows; i++ {
		db.PutEvent(record.Event{Time: float64(i), Kind: "iteration", Job: jobID(i % jobs), Data: map[string]int{"i": i}})
		if (i+1)%2000 == 0 {
			for written.Value() < uint64(i+1) {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store/dropped_rows").Value(); got != 0 {
		t.Fatalf("%d rows dropped writing the store", got)
	}
}

// heapAfterGC is the live heap once the collector has run.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReadLogFootprintFlat: a Log costs memory for its index, not its
// rows. Ten times the rows over the same jobs leaves the heap, with the
// Log alive, within 10 %, and the queries still answer every row.
func TestReadLogFootprintFlat(t *testing.T) {
	const jobs = 100
	dir := t.TempDir()
	small, large := dir+"/small.db", dir+"/large.db"
	fill(t, small, "r", 20_000, jobs)
	fill(t, large, "r", 200_000, jobs)

	heap := func(path string) (uint64, *Log) {
		l, err := ReadLog(path)
		if err != nil {
			t.Fatal(err)
		}
		return heapAfterGC(), l
	}
	heap(small) // the first read allocates the package's lasting state
	hs, _ := heap(small)
	hl, l := heap(large)
	if d := float64(hl) - float64(hs); d > 0.1*float64(hs) || d < -0.1*float64(hs) {
		t.Fatalf("heap with the Log alive: %d B over 20 000 rows, %d B over 200 000, want within 10 %%", hs, hl)
	}

	want := make([]string, jobs)
	for j := range want {
		want[j] = jobID(j)
	}
	if got := l.Jobs("r"); !slices.Equal(got, want) {
		t.Fatalf("jobs = %v, want %v", got, want)
	}
	for _, j := range []int{0, 57, jobs - 1} {
		evs := l.Events("r", jobID(j))
		if len(evs) != 200_000/jobs {
			t.Fatalf("%s has %d events, want %d", jobID(j), len(evs), 200_000/jobs)
		}
		for k, ev := range evs {
			if i := k*jobs + j; ev.Time != float64(i) || string(ev.Data) != fmt.Sprintf(`{"i":%d}`, i) {
				t.Fatalf("%s's event %d = %+v, want t=%d", jobID(j), k, ev, i)
			}
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReadLog200k times ReadLog's one indexing pass over a store
// of 200 000 rows spread over 100 jobs, as the writer encodes them.
func BenchmarkReadLog200k(b *testing.B) {
	path := b.TempDir() + "/large.db"
	fill(b, path, "r", 200_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := ReadLog(path)
		if err != nil {
			b.Fatal(err)
		}
		if l.Skipped != 0 || len(l.Jobs("r")) != 100 {
			b.Fatalf("index: %d skipped, %d jobs", l.Skipped, len(l.Jobs("r")))
		}
	}
}

// TestReadLogWhileAppending: a Log read while its DB keeps writing
// answers a prefix of what was put, the same prefix on every query, and
// its index agrees with its rows.
func TestReadLogWhileAppending(t *testing.T) {
	path := tmpDB(t)
	const n, perJob, perRead = 1000, 10, 50
	db, err := Open(path, "live", nil, Options{QueueSize: n})
	if err != nil {
		t.Fatal(err)
	}
	// The producer puts perRead rows, then waits for one more read to
	// finish, so reads land all along the file's growth while the
	// writer goroutine appends on its own schedule.
	read := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			db.PutEvent(record.Event{Time: float64(i), Kind: "tick", Job: jobID(i / perJob)})
			if i%perRead == perRead-1 && i < n-1 {
				<-read
			}
		}
		db.Close()
	}()

	check := func(l *Log) int {
		t.Helper()
		evs := l.Events("live", "")
		for i, ev := range evs {
			if ev.Time != float64(i) {
				t.Fatalf("event %d of %d has t=%v: not a prefix of the puts", i, len(evs), ev.Time)
			}
		}
		if again := l.Events("live", ""); len(again) != len(evs) {
			t.Fatalf("the same Log answered %d events, then %d", len(evs), len(again))
		}
		jobs := l.Jobs("live")
		if want := (len(evs) + perJob - 1) / perJob; len(jobs) != want {
			t.Fatalf("%d events name %d jobs, the index %d", len(evs), want, len(jobs))
		}
		for k, j := range jobs {
			if j != jobID(k) {
				t.Fatalf("job %d = %s, want %s", k, j, jobID(k))
			}
		}
		if l.Skipped > 1 {
			t.Fatalf("skipped %d lines; only a tail the writer is still writing may be torn", l.Skipped)
		}
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		return len(evs)
	}
	seen, reads := 0, 0
	for deadline := time.Now().Add(30 * time.Second); seen < n; {
		if time.Now().After(deadline) {
			t.Fatalf("the store holds %d of %d events after 30 s", seen, n)
		}
		l, err := ReadLog(path)
		if err != nil {
			t.Fatal(err)
		}
		got := check(l)
		if got < seen {
			t.Fatalf("a later Log answered %d events, an earlier one %d", got, seen)
		}
		seen = got
		reads++
		select {
		case read <- struct{}{}:
		default:
		}
	}
	<-db.done
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if check(l); l.Skipped != 0 {
		t.Fatalf("skipped %d lines of a closed store", l.Skipped)
	}
	t.Logf("%d reads while appending", reads)
}

// failOnce tears the first write it is handed in half and fails it, as
// a full disk would, then passes every write through.
type failOnce struct {
	file
	failed bool
}

func (f *failOnce) Write(p []byte) (int, error) {
	if f.failed {
		return f.file.Write(p)
	}
	f.failed = true
	n, _ := f.file.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

// TestWriteErrorRecovers: one failed write costs the rows it carried,
// counted as dropped, and not the rows put after it, which read back
// past the line it tore.
func TestWriteErrorRecovers(t *testing.T) {
	path := tmpDB(t)
	reg := obs.NewRegistry()
	db, err := Open(path, "r", reg)
	if err != nil {
		t.Fatal(err)
	}
	db.out = &failOnce{file: db.f} // before the first put, which orders it before the writer's use
	db.PutEvent(record.Event{Time: 1, Kind: "lost"})
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("store/write_err").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the failing write was never made")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 2; i <= 4; i++ {
		db.PutEvent(record.Event{Time: float64(i), Kind: "kept"})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"store/write_err": 1, "store/dropped_rows": 1, "store/rows_written": 3} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the torn row)", l.Skipped)
	}
	evs := l.Events("r", "")
	if len(evs) != 3 || evs[0].Time != 2 || evs[2].Time != 4 || evs[0].Kind != "kept" {
		t.Fatalf("events = %+v, want the three put after the failure", evs)
	}
}

// TestOpenEndsTornTail: a store a crash left ending mid-line gets its
// next run's rows on a line of their own, so only the torn line is lost.
func TestOpenEndsTornTail(t *testing.T) {
	path := tmpDB(t)
	db, err := Open(path, "first", nil)
	if err != nil {
		t.Fatal(err)
	}
	db.PutEvent(record.Event{Time: 1, Kind: "period"})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"run":"first","table":"event","t":2,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if db, err = Open(path, "second", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the torn tail)", l.Skipped)
	}
	// The second run wrote nothing but its open row: it is listed only
	// if that row survived.
	if runs := l.Runs(); !slices.Equal(runs, []string{"first", "second"}) {
		t.Fatalf("runs = %v, want the second run's open row after the torn tail", runs)
	}
	if got := len(l.Events("first", "")); got != 1 {
		t.Fatalf("first run's events = %d, want 1", got)
	}
}
