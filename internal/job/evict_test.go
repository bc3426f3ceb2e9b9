package job

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/store"
)

// storedService is testService with a recorder teeing into a record
// store, the way satind runs with -record-db. The recorder's ring holds
// 4 096 events, full after about 700 short jobs (six events each).
func storedService(t *testing.T) (*Manager, *Ctl) {
	t.Helper()
	db, err := store.Open(filepath.Join(t.TempDir(), "record.db"), "test", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // after the manager's: cleanups run last first
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	rec := record.New(4096, 1)
	rec.SetSink(db)
	m := testManager(t, 1, 2, func(c *Config) {
		c.Recorder = rec
		quickBench(c)
	})
	return m, serve(t, m)
}

// quickBench gives the nodes a trivial speed benchmark: every node runs
// it when it starts, and the default one takes longer than a short job.
func quickBench(c *Config) {
	c.Node.Bench = apps.Fib{N: 2, SeqCutoff: 2}
	c.Node.BenchWork = float64(apps.FibLeaves(2))
}

// runShort runs one short job to the end and fails the test unless it
// is done with a right result.
func runShort(t *testing.T, m *Manager) *Job {
	t.Helper()
	j, err := m.Submit(Spec{App: "nqueens", Size: 6})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 30*time.Second)
	if j.State() != Done || j.Result().Check != "ok" {
		t.Fatalf("%s: state %s, check %q, err %q", j.ID, j.State(), j.Result().Check, j.Result().Err)
	}
	return j
}

// answers fetches a job's status and result over the wire.
func answers(t *testing.T, ctl *Ctl, id string) (JobStatus, ResultReply) {
	t.Helper()
	const tmo = 10 * time.Second
	st, err := ctl.Status(id, tmo)
	if err != nil || len(st) != 1 {
		t.Fatalf("status of %s: %+v, %v", id, st, err)
	}
	res, err := ctl.Result(id, false, tmo)
	if err != nil {
		t.Fatalf("result of %s: %v", id, err)
	}
	res.Token = 0
	return st[0], res
}

// TestEvictedJobAnsweredFromStore: a job pushed out of the window of
// finished jobs leaves the manager and its series, and its status and
// result come back from the record store exactly as the live job gave
// them.
func TestEvictedJobAnsweredFromStore(t *testing.T) {
	m, ctl := storedService(t)
	first, err := m.Submit(Spec{App: "nqueens", Size: 7, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first, 30*time.Second)
	liveStatus, liveResult := answers(t, ctl, first.ID)
	if liveStatus.State != "done" || liveResult.Check != "ok" || len(liveResult.Iterations) != 3 {
		t.Fatalf("live answers: %+v, %+v", liveStatus, liveResult)
	}

	for i := 0; i < finishedWindow; i++ {
		runShort(t, m)
	}
	if m.Job(first.ID) != nil {
		t.Fatalf("%s still in memory after %d later jobs finished", first.ID, finishedWindow)
	}
	if n := len(m.Jobs()); n != finishedWindow {
		t.Fatalf("manager retains %d jobs, want the window of %d", n, finishedWindow)
	}
	if _, ok := obs.Default.Snapshot()[itersSeries(first.ID)]; ok {
		t.Fatalf("%s's series outlived the job", first.ID)
	}

	storedStatus, storedResult := answers(t, ctl, first.ID)
	if !reflect.DeepEqual(storedStatus, liveStatus) {
		t.Fatalf("status from the store %+v, live %+v", storedStatus, liveStatus)
	}
	if !reflect.DeepEqual(storedResult, liveResult) {
		t.Fatalf("result from the store %+v, live %+v", storedResult, liveResult)
	}
	if _, err := ctl.Status("job-999", 10*time.Second); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of a job never assigned: %v", err)
	}
}

// TestEvictedJobWithoutStore: with no record store, eviction still runs
// and a query for an evicted job says so, unlike one for a job never
// assigned.
func TestEvictedJobWithoutStore(t *testing.T) {
	m := testManager(t, 1, 2, quickBench)
	ctl := serve(t, m)
	first := runShort(t, m)
	for i := 0; i < finishedWindow; i++ {
		runShort(t, m)
	}
	if m.Job(first.ID) != nil {
		t.Fatalf("%s still in memory with no store attached", first.ID)
	}
	const tmo = 10 * time.Second
	if _, err := ctl.Status(first.ID, tmo); err == nil || !strings.Contains(err.Error(), "evicted, no record store") {
		t.Fatalf("status of an evicted job: %v", err)
	}
	if _, err := ctl.Result(first.ID, true, tmo); err == nil || !strings.Contains(err.Error(), "evicted, no record store") {
		t.Fatalf("result of an evicted job: %v", err)
	}
	if _, err := ctl.Result("job-999", false, tmo); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("result of a job never assigned: %v", err)
	}
}

// TestFootprintFlat: 5 000 sequential short jobs through a manager with
// a recorder and a store. The heap after GC at job 5 000 is within 10 %
// of the heap at job 1 000 (the recorder's ring is full by then), the
// job layer's series in obs.Default are as many at both points, and the
// first job's status and result still answer, from the store. The other
// layers' series may differ by a few labels seen first late, such as a
// join ack that arrives after its job has ended, but not by one a job.
func TestFootprintFlat(t *testing.T) {
	const early, late = 1000, 5000
	// The managers of other tests, and of earlier runs under -count,
	// leave their retained jobs' series in obs.Default under the names
	// this run's jobs take: start from none.
	var leftover []string
	for name := range obs.Default.Snapshot() {
		leftover = append(leftover, name)
	}
	for name := range obs.Default.Gauges() {
		leftover = append(leftover, name)
	}
	for _, name := range leftover {
		if strings.HasPrefix(name, "job/job-") {
			obs.Default.Remove(name)
		}
	}
	m, ctl := storedService(t)
	first := runShort(t, m)
	liveStatus, liveResult := answers(t, ctl, first.ID)

	footprint := func() (heap uint64, jobSeries, series int) {
		m.wg.Wait() // the last job's teardown has run
		// A node's benchmark re-arm timer holds the node for at least
		// 50 ms after it stopped; let the last jobs' timers fire.
		time.Sleep(150 * time.Millisecond)
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		counters, gauges := obs.Default.Snapshot(), obs.Default.Gauges()
		for name := range counters {
			if strings.HasPrefix(name, "job/") {
				jobSeries++
			}
		}
		for name := range gauges {
			if strings.HasPrefix(name, "job/") {
				jobSeries++
			}
		}
		return ms.HeapAlloc, jobSeries, len(counters) + len(gauges)
	}
	start := time.Now()
	var earlyHeap uint64
	var earlyJob, earlyAll int
	for i := 2; i <= late; i++ {
		runShort(t, m)
		if i == early {
			earlyHeap, earlyJob, earlyAll = footprint()
		}
	}
	lateHeap, lateJob, lateAll := footprint()
	t.Logf("%d jobs in %v: heap %d KB at job %d, %d KB at job %d; %d series, %d of them job/",
		late, time.Since(start).Round(time.Millisecond), earlyHeap>>10, early, lateHeap>>10, late, lateAll, lateJob)
	if float64(lateHeap) > 1.1*float64(earlyHeap) {
		t.Errorf("heap grew from %d KB at job %d to %d KB at job %d, more than 10 %%",
			earlyHeap>>10, early, lateHeap>>10, late)
	}
	if lateJob != earlyJob {
		t.Errorf("obs.Default holds %d job/ series at job %d, %d at job %d", earlyJob, early, lateJob, late)
	}
	if lateAll-earlyAll > 16 {
		t.Errorf("obs.Default grew from %d series at job %d to %d at job %d", earlyAll, early, lateAll, late)
	}
	storedStatus, storedResult := answers(t, ctl, first.ID)
	if storedStatus.State != liveStatus.State || storedStatus.Done != liveStatus.Done ||
		storedResult.Check != liveResult.Check || storedResult.Result != liveResult.Result ||
		len(storedResult.Iterations) != len(liveResult.Iterations) {
		t.Errorf("%s from the store: %+v, %+v; live: %+v, %+v",
			first.ID, storedStatus, storedResult, liveStatus, liveResult)
	}
}
