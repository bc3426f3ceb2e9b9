package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// checkStats says why s is not a statistics record the decision engine
// expects: a negative speed, a fraction outside [0,1], or overhead
// fractions that sum past the period.
func checkStats(s core.NodeStats) error {
	if s.Speed < 0 {
		return fmt.Errorf("negative speed %v", s.Speed)
	}
	for _, f := range []float64{s.Idle, s.IntraComm, s.InterComm} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("fraction %v out of [0,1]", f)
		}
	}
	if sum := s.Idle + s.IntraComm + s.InterComm; sum > 1+1e-9 {
		return fmt.Errorf("overhead fractions sum to %v > 1", sum)
	}
	return nil
}

func TestAccumulatorSnapshot(t *testing.T) {
	a := NewAccumulator("n0", "c0", 100)
	a.Add(Busy, 50)
	a.Add(Intra, 10)
	a.Add(Inter, 20)
	a.Add(Bench, 5)
	a.AddInterBytes(2e6)
	a.SetSpeed(1.5)
	r := a.Snapshot(200)

	if r.Node != "n0" || r.Cluster != "c0" {
		t.Errorf("identity lost: %+v", r)
	}
	if r.Start != 100 || r.End != 200 || r.Duration() != 100 {
		t.Errorf("period bounds: %+v", r)
	}
	if r.BusySec != 50 || r.IntraSec != 10 || r.InterSec != 20 || r.BenchSec != 5 {
		t.Errorf("buckets: %+v", r)
	}
	if r.IdleSec != 15 {
		t.Errorf("idle = %v, want 15 (remainder)", r.IdleSec)
	}
	if r.Speed != 1.5 {
		t.Errorf("speed = %v", r.Speed)
	}
	if r.InterBandwidth != 1e5 {
		t.Errorf("inter bandwidth = %v, want 1e5", r.InterBandwidth)
	}
}

func TestSnapshotResetsButKeepsSpeed(t *testing.T) {
	a := NewAccumulator("n0", "c0", 0)
	a.Add(Busy, 5)
	a.SetSpeed(2)
	_ = a.Snapshot(10)
	r := a.Snapshot(20)
	if r.BusySec != 0 || r.IdleSec != 10 {
		t.Errorf("second period not reset: %+v", r)
	}
	if r.Speed != 2 {
		t.Errorf("speed should carry over, got %v", r.Speed)
	}
	if r.Start != 10 || r.End != 20 {
		t.Errorf("second period bounds: %+v", r)
	}
}

func TestReportStatsFractions(t *testing.T) {
	r := Report{
		Node: "n", Cluster: "c", Start: 0, End: 100,
		BusySec: 40, IntraSec: 10, InterSec: 20, BenchSec: 5, IdleSec: 25,
		Speed: 3,
	}
	s := r.Stats()
	if s.Speed != 3 {
		t.Errorf("speed = %v", s.Speed)
	}
	if math.Abs(s.IntraComm-0.1) > 1e-12 || math.Abs(s.InterComm-0.2) > 1e-12 {
		t.Errorf("comm fractions: %+v", s)
	}
	// Bench folds into idle: (25+5)/100.
	if math.Abs(s.Idle-0.3) > 1e-12 {
		t.Errorf("idle = %v, want 0.3", s.Idle)
	}
	if math.Abs(s.Overhead()-0.6) > 1e-12 {
		t.Errorf("overhead = %v, want 0.6", s.Overhead())
	}
	if err := checkStats(s); err != nil {
		t.Errorf("stats invalid: %v", err)
	}
}

func TestReportStatsZeroDuration(t *testing.T) {
	r := Report{Node: "n", Cluster: "c", Start: 5, End: 5, Speed: 2}
	s := r.Stats()
	if s.Overhead() != 0 || s.Speed != 2 {
		t.Errorf("zero-duration stats: %+v", s)
	}
}

func TestOverfullPeriodClamps(t *testing.T) {
	a := NewAccumulator("n", "c", 0)
	a.Add(Busy, 15) // activity completed after straddling the boundary
	r := a.Snapshot(10)
	if r.IdleSec != 0 {
		t.Errorf("idle = %v, want clamped 0", r.IdleSec)
	}
	s := r.Stats()
	// Busy isn't part of overhead, so the stats stay in range; overhead 0.
	if err := checkStats(s); err != nil {
		t.Errorf("stats invalid: %v", err)
	}
	if s.Overhead() != 0 {
		t.Errorf("overhead = %v", s.Overhead())
	}
}

func TestPanics(t *testing.T) {
	a := NewAccumulator("n", "c", 10)
	for name, fn := range map[string]func(){
		"negative add":   func() { a.Add(Busy, -1) },
		"negative bytes": func() { a.AddInterBytes(-1) },
		"snapshot past":  func() { a.Snapshot(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBucketString(t *testing.T) {
	for b, want := range map[Bucket]string{
		Busy: "busy", Intra: "intra", Inter: "inter", Bench: "bench",
		Bucket(42): "Bucket(42)",
	} {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(b), got, want)
		}
	}
}

// Property: for any bucket filling within the period, the derived
// fractions are valid NodeStats and overhead = 1 - busy fraction.
func TestStatsValidityProperty(t *testing.T) {
	f := func(busyRaw, intraRaw, interRaw, benchRaw uint8) bool {
		total := float64(busyRaw) + float64(intraRaw) + float64(interRaw) + float64(benchRaw) + 1
		a := NewAccumulator("n", "c", 0)
		a.Add(Busy, float64(busyRaw))
		a.Add(Intra, float64(intraRaw))
		a.Add(Inter, float64(interRaw))
		a.Add(Bench, float64(benchRaw))
		r := a.Snapshot(total) // period 1s longer than activity
		s := r.Stats()
		if err := checkStats(s); err != nil {
			return false
		}
		wantOverhead := 1 - float64(busyRaw)/total
		return math.Abs(s.Overhead()-wantOverhead) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSamples(t *testing.T) {
	a := NewAccumulator("n0", "A", 0)
	a.Add(Inter, 5)
	a.AddLinkSample("B", 3, 3000)
	a.AddLinkSample("B", 2, 1000)
	a.AddLinkSample("C", 1, 500)
	r := a.Snapshot(100)
	if len(r.Links) != 2 {
		t.Fatalf("links = %v", r.Links)
	}
	if b := r.Links["B"]; b.Seconds != 5 || b.Bytes != 4000 {
		t.Errorf("B sample = %+v", b)
	}
	s := r.Stats()
	if s.Links["C"].Bytes != 500 {
		t.Errorf("stats links = %+v", s.Links)
	}
	// Reset between periods.
	r2 := a.Snapshot(200)
	if len(r2.Links) != 0 {
		t.Errorf("second period inherited links: %v", r2.Links)
	}
}

func TestLinkSamplePanicsOnNegative(t *testing.T) {
	a := NewAccumulator("n", "c", 0)
	defer func() {
		if recover() == nil {
			t.Error("negative link sample accepted")
		}
	}()
	a.AddLinkSample("B", -1, 5)
}

// TestZeroLengthPeriod: a snapshot taken at the exact period start (a
// coordinator tick racing a node's own report) must not divide by zero
// — fractions come back zero and the carried speed survives.
func TestZeroLengthPeriod(t *testing.T) {
	a := NewAccumulator("n", "c", 10)
	a.SetSpeed(123)
	r := a.Snapshot(10)
	if r.Duration() != 0 {
		t.Fatalf("duration = %g, want 0", r.Duration())
	}
	s := r.Stats()
	if s.Idle != 0 || s.IntraComm != 0 || s.InterComm != 0 {
		t.Fatalf("zero-length period produced fractions: %+v", s)
	}
	if s.Speed != 123 {
		t.Fatalf("speed = %g, want 123 (must survive an empty period)", s.Speed)
	}
	// The next period starts where the empty one ended.
	a.Add(Busy, 1)
	r2 := a.Snapshot(12)
	if r2.Start != 10 || r2.BusySec != 1 {
		t.Fatalf("period after empty snapshot = %+v", r2)
	}
}

// TestOverFullPeriod: activities straddling the boundary are attributed
// to the period they complete in, which can overfill it. Idle must
// clamp to zero (never negative) and the fractions to one.
func TestOverFullPeriod(t *testing.T) {
	a := NewAccumulator("n", "c", 0)
	a.Add(Busy, 3)
	a.Add(Inter, 2)
	r := a.Snapshot(4) // 5s of activity in a 4s period
	if r.IdleSec != 0 {
		t.Fatalf("idle = %g, want 0 (clamped)", r.IdleSec)
	}
	s := r.Stats()
	if s.InterComm != 0.5 {
		t.Fatalf("inter fraction = %g, want 0.5", s.InterComm)
	}
	// A single bucket larger than the whole period clamps at 1.
	a.Add(Inter, 9)
	r2 := a.Snapshot(8)
	if got := r2.Stats().InterComm; got != 1 {
		t.Fatalf("overfull inter fraction = %g, want 1", got)
	}
}

// TestSnapshotBeforeStartPanics pins the time-goes-backwards guard.
func TestSnapshotBeforeStartPanics(t *testing.T) {
	a := NewAccumulator("n", "c", 10)
	defer func() {
		if recover() == nil {
			t.Error("snapshot before period start accepted")
		}
	}()
	a.Snapshot(9)
}
