package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wire/frames_in/steal")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if again := r.Counter("wire/frames_in/steal"); again != c {
		t.Fatal("same name must resolve to the same counter")
	}
}

func TestSnapshotAndTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire/decode_err/steal").Add(2)
	r.Counter("wire/decode_err/report").Add(3)
	r.Counter("wire/frames_in/steal").Add(7)
	if got := r.Total("wire/decode_err/"); got != 5 {
		t.Fatalf("Total(decode_err) = %d, want 5", got)
	}
	snap := r.Snapshot()
	if snap["wire/frames_in/steal"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestWriteTextSortedNonZero(t *testing.T) {
	r := NewRegistry()
	r.Counter("b/two").Add(2)
	r.Counter("a/one").Add(1)
	r.Counter("c/zero") // stays zero: not printed
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	ia, ib := strings.Index(out, "a/one"), strings.Index(out, "b/two")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("dump not sorted or missing entries:\n%s", out)
	}
	if strings.Contains(out, "c/zero") {
		t.Fatalf("zero counter printed:\n%s", out)
	}
}

func TestConcurrentCounting(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hot")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot").Value(); got != 8000 {
		t.Fatalf("got %d, want 8000", got)
	}
}

func TestRemoveDropsSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("job/job-001/iterations").Add(3)
	r.Gauge("job/job-001/nodes").Set(2)
	r.Counter("job/state/done").Inc()
	r.Remove("job/job-001/iterations", "job/job-001/nodes", "never/registered")
	if snap := r.Snapshot(); len(snap) != 1 || snap["job/state/done"] != 1 {
		t.Fatalf("counters after Remove = %v", snap)
	}
	if g := r.Gauges(); len(g) != 0 {
		t.Fatalf("gauges after Remove = %v", g)
	}
	if got := r.Counter("job/job-001/iterations").Value(); got != 0 {
		t.Fatalf("a removed name resolves to a new series, got %d", got)
	}
}
