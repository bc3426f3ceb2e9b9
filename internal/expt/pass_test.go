package expt

import (
	"runtime"
	"testing"
	"time"
)

// paperPass runs every scenario of All() without and with adaptation at
// seed 1, as one des_paper op of the benchmark harness does, and
// returns the events the simulations fired.
func paperPass(tb testing.TB) (events uint64) {
	for _, sc := range All() {
		sc.Seed = 1
		out, err := Run(sc, NoAdapt, Adaptive)
		if err != nil {
			tb.Fatal(err)
		}
		events += out.Results[NoAdapt].Events + out.Results[Adaptive].Events
	}
	return events
}

// One pass over the paper's scenarios stays under 160k mallocs and
// 14 MB; it makes about 144k in 13.1 MB, and the bounds leave room for
// the test's own goroutines. A steal that cut the victim's deque from
// the front, so that its next splits grew a new array, made 300k in
// 22.6 MB.
func TestPaperPassAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole pass over the scenarios")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	paperPass(t)
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("one pass: %d mallocs, %.1f MB", mallocs, float64(bytes)/1e6)
	if mallocs > 160_000 {
		t.Errorf("one pass made %d mallocs, want at most 160000", mallocs)
	}
	if bytes > 14_000_000 {
		t.Errorf("one pass allocated %.1f MB, want at most 14", float64(bytes)/1e6)
	}
}

// BenchmarkPaperPass times one pass over the paper's scenarios, the op
// of the des_paper workload, and reports simulated events per second.
func BenchmarkPaperPass(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		events += paperPass(b)
	}
	b.ReportMetric(float64(events)/time.Since(start).Seconds(), "events/s")
}
