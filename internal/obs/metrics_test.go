package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("coord/health")
	if v := g.Value(); v != 0 {
		t.Fatalf("fresh gauge = %g, want 0", v)
	}
	g.Set(0.42)
	if g2 := r.Gauge("coord/health"); g2 != g {
		t.Fatal("second resolution returned a different gauge")
	}
	if v := r.Gauges()["coord/health"]; v != 0.42 {
		t.Fatalf("Gauges() = %g, want 0.42", v)
	}
	g.Set(-3)
	if v := g.Value(); v != -3 {
		t.Fatalf("gauge after Set(-3) = %g", v)
	}
}

func TestHistogramBucketSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x/rtt", []float64{1, 2, 4})
	// Prometheus "le" semantics: a value equal to a bound lands in that
	// bound's bucket; anything above the last bound lands in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 100} {
		h.Observe(v)
	}
	view := r.Histograms()["x/rtt"]
	wantCounts := []uint64{2, 2, 1, 1} // le=1: {0.5,1}; le=2: {1.5,2}; le=4: {4}; +Inf: {100}
	if len(view.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(view.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if view.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, view.Counts[i], want, view.Counts)
		}
	}
	if view.Count != 6 {
		t.Fatalf("count = %d, want 6", view.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 4 + 100; math.Abs(view.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", view.Sum, want)
	}
	if h2 := r.Histogram("x/rtt", []float64{9, 99}); h2 != h {
		t.Fatal("second resolution returned a different histogram")
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	r := NewRegistry()
	for name, bounds := range map[string][]float64{
		"empty":         {},
		"non-ascending": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Histogram(%s, %v) did not panic", name, bounds)
				}
			}()
			r.Histogram(name, bounds)
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
	lin := LinearBuckets(0.1, 0.1, 3)
	if len(lin) != 3 || math.Abs(lin[2]-0.3) > 1e-12 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	for i := 1; i < len(HealthBuckets); i++ {
		if HealthBuckets[i] <= HealthBuckets[i-1] {
			t.Fatalf("HealthBuckets not ascending: %v", HealthBuckets)
		}
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire/frames_in/steal").Add(17)
	r.Gauge("coord/health").Set(0.42)
	h := r.Histogram("satin/steal_rtt/local", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE repro_counter counter",
		`repro_counter{name="wire/frames_in/steal"} 17`,
		"# TYPE repro_gauge gauge",
		`repro_gauge{name="coord/health"} 0.42`,
		"# TYPE repro_hist histogram",
		`repro_hist_bucket{name="satin/steal_rtt/local",le="0.001"} 2`,
		`repro_hist_bucket{name="satin/steal_rtt/local",le="0.01"} 2`, // cumulative
		`repro_hist_bucket{name="satin/steal_rtt/local",le="+Inf"} 3`,
		`repro_hist_count{name="satin/steal_rtt/local"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent drives every instrument kind and every reader
// concurrently; its assertions are deliberately weak — the point is
// the -race run.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("c/shared").Inc()
				r.Gauge("g/shared").Set(float64(j))
				r.Histogram("h/shared", []float64{1, 10, 100}).Observe(float64(j % 150))
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Snapshot()
				r.Total("c/")
				r.Gauges()
				r.Histograms()
				r.WritePrometheus(discard{})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c/shared").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	view := r.Histograms()["h/shared"]
	if view.Count != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", view.Count, goroutines*iters)
	}
	var sum uint64
	for _, c := range view.Counts {
		sum += c
	}
	if sum != view.Count {
		t.Fatalf("bucket sum %d != count %d", sum, view.Count)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
