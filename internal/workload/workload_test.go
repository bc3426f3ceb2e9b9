package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBarnesHutCalibration(t *testing.T) {
	s := BarnesHut(100000, 30)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 30 {
		t.Errorf("iterations = %d", s.Iterations)
	}
	if math.Abs(s.WorkPerIteration-180) > 1e-9 {
		t.Errorf("work per iteration = %v, want 180 (calibration)", s.WorkPerIteration)
	}
	if math.Abs(s.SequentialPerIteration-5) > 0.01 {
		t.Errorf("sequential = %v, want ~5", s.SequentialPerIteration)
	}
	if s.BytesPerNode != 16*100000 {
		t.Errorf("bytes per node = %v", s.BytesPerNode)
	}
	// Scaling with N: more bodies, more work (superlinear via log).
	big := BarnesHut(200000, 30)
	if big.WorkPerIteration <= 2*s.WorkPerIteration*0.99 {
		t.Errorf("200k bodies work %v not > 2x 100k work %v", big.WorkPerIteration, s.WorkPerIteration)
	}
	// Default body count.
	if d := BarnesHut(0, 10); d.WorkPerIteration != s.WorkPerIteration {
		t.Errorf("default nBodies should be 100k")
	}
}

func TestSpecValidate(t *testing.T) {
	good := BarnesHut(1000, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Iterations: 0, WorkPerIteration: 1, Grain: 1},
		{Iterations: 1, WorkPerIteration: 0, Grain: 1},
		{Iterations: 1, WorkPerIteration: 1, Grain: 0},
		{Iterations: 1, WorkPerIteration: 1, Grain: 1, SequentialPerIteration: -1},
		{Iterations: 1, WorkPerIteration: 1, Grain: 1, Irregularity: 1},
		{Iterations: 1, WorkPerIteration: 1, Grain: 1, Irregularity: -0.1},
		{Iterations: 1, WorkPerIteration: 1, Grain: 1, BytesPerNode: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
}

// Property: splitting conserves work exactly and both halves are
// positive for any irregularity below 1.
func TestSplitConservesWork(t *testing.T) {
	f := func(seed int64, workRaw uint16, irrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		work := float64(workRaw) + 0.5
		s := Spec{Irregularity: float64(irrRaw%100) / 100}
		a, b := s.Split(work, rng)
		return a > 0 && b > 0 && a+b == work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestShouldSplit(t *testing.T) {
	s := Spec{Grain: 0.1}
	if !s.ShouldSplit(0.2) || s.ShouldSplit(0.1) || s.ShouldSplit(0.05) {
		t.Error("grain boundary wrong")
	}
}

func TestIterWorkScaling(t *testing.T) {
	s := VaryingParallelism(BarnesHut(100000, 10), func(i int) float64 {
		if i%2 == 1 {
			return 0.5
		}
		return 1
	})
	if s.IterWork(0) != 180 || s.IterWork(1) != 90 {
		t.Errorf("scaled work: %v, %v", s.IterWork(0), s.IterWork(1))
	}
	base := BarnesHut(100000, 10)
	if base.IterWork(3) != 180 {
		t.Errorf("unscaled work = %v", base.IterWork(3))
	}
}

// profile returns the Eager-et-al work profile of one iteration:
// T1 = sequential + parallel work; Tinf is approximated by the
// sequential phase plus the expected depth of the task tree times the
// grain (the longest chain of leaf executions).
func profile(s Spec, iter int) (t1, tinf float64) {
	w := s.IterWork(iter)
	t1 = s.SequentialPerIteration + w
	depth := math.Max(math.Log2(w/s.Grain)+1, 1)
	return t1, s.SequentialPerIteration + depth*s.Grain
}

func TestProfileEagerConsistency(t *testing.T) {
	s := BarnesHut(100000, 10)
	t1, tinf := profile(s, 0)
	if t1 != 185 {
		t.Errorf("T1 = %v, want 185", t1)
	}
	if tinf <= s.SequentialPerIteration || tinf >= t1 {
		t.Errorf("Tinf = %v out of (%v, %v)", tinf, s.SequentialPerIteration, t1)
	}
	// Average parallelism should be in the tens: that is why ~36 nodes
	// is the paper's reasonable allocation.
	a := t1 / tinf
	if a < 10 || a > 60 {
		t.Errorf("average parallelism = %v, expected tens", a)
	}
}
