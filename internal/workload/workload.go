// Package workload describes the applications the grid experiments
// run: iterative divide-and-conquer computations in the style the paper
// evaluates (Barnes-Hut N-body simulation on Satin). A Spec gives the
// per-iteration work, its irregular recursive decomposition, the
// sequential (master-side) phase, and the data-exchange traffic each
// iteration generates — everything the simulator needs to reproduce
// the paper's performance behaviour without a performance model ever
// being given to the adaptation component.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Task is a subtree of the divide-and-conquer computation: Work is the
// total work under it, in speed-seconds (execution time on a speed-1
// processor).
type Task struct {
	Work float64
}

// Spec describes an iterative divide-and-conquer application.
type Spec struct {
	Name string

	// Iterations is the number of outer time steps.
	Iterations int

	// WorkPerIteration is the parallel work of one iteration in
	// speed-seconds; WorkScale (if set) multiplies it per iteration to
	// model a changing degree of parallelism.
	WorkPerIteration float64
	WorkScale        func(iter int) float64

	// SequentialPerIteration is the master-only phase (tree build,
	// result gathering) in speed-seconds; it bounds scalability the
	// Amdahl way and is what makes ~36 DAS-2 nodes the paper's
	// "reasonable" allocation at ~50% efficiency.
	SequentialPerIteration float64

	// Grain is the leaf threshold in speed-seconds: tasks with at most
	// this much work execute directly instead of splitting.
	Grain float64

	// Irregularity in [0,1) skews binary splits: 0 gives even halves,
	// values near 1 produce task sizes varying by orders of magnitude
	// (the paper notes divide-and-conquer trees are highly irregular).
	Irregularity float64

	// BytesPerNode is the application's full working set (all bodies in
	// Barnes-Hut): a joining node must fetch it before participating.
	BytesPerNode float64

	// ExchangeBytes is the per-node, per-iteration broadcast (the
	// updated tree summary); cross-cluster shares travel the uplinks
	// once per cluster pair, then fan out over the LAN.
	ExchangeBytes float64

	// StealMsgBytes is the fixed payload of one migrated job (job
	// descriptor plus its eventual result). The job's data rides along:
	// see JobBytes.
	StealMsgBytes float64
}

// JobBytes is the payload of a stolen subtree carrying the given
// amount of work: the fixed descriptor plus the proportional share of
// the working set (a Barnes-Hut subtree task carries its bodies, as in
// the Satin implementation). This is what concentrates bandwidth pain
// at a badly connected cluster: all work entering it crosses its
// uplink with its data attached.
func (s *Spec) JobBytes(work float64) float64 {
	if s.WorkPerIteration <= 0 {
		return s.StealMsgBytes
	}
	return s.StealMsgBytes + work/s.WorkPerIteration*s.BytesPerNode
}

// Validate checks the spec is runnable.
func (s *Spec) Validate() error {
	if s.Iterations <= 0 {
		return fmt.Errorf("workload %q: iterations %d must be positive", s.Name, s.Iterations)
	}
	if s.WorkPerIteration <= 0 {
		return fmt.Errorf("workload %q: work per iteration %v must be positive", s.Name, s.WorkPerIteration)
	}
	if s.SequentialPerIteration < 0 {
		return fmt.Errorf("workload %q: negative sequential work", s.Name)
	}
	if s.Grain <= 0 {
		return fmt.Errorf("workload %q: grain %v must be positive", s.Name, s.Grain)
	}
	if s.Irregularity < 0 || s.Irregularity >= 1 {
		return fmt.Errorf("workload %q: irregularity %v out of [0,1)", s.Name, s.Irregularity)
	}
	if s.BytesPerNode < 0 || s.ExchangeBytes < 0 || s.StealMsgBytes < 0 {
		return fmt.Errorf("workload %q: negative byte sizes", s.Name)
	}
	return nil
}

// IterWork returns iteration iter's parallel work in speed-seconds.
func (s *Spec) IterWork(iter int) float64 {
	w := s.WorkPerIteration
	if s.WorkScale != nil {
		w *= s.WorkScale(iter)
	}
	return w
}

// ShouldSplit reports whether a task of the given work splits further.
func (s *Spec) ShouldSplit(work float64) bool { return work > s.Grain }

// Split divides a task's work into two children. The split fraction is
// drawn from rng within [0.5−0.45·irr, 0.5+0.45·irr]; the children's
// work sums exactly to the parent's (b is computed by subtraction), so
// no work is created or lost by decomposition.
func (s *Spec) Split(work float64, rng *rand.Rand) (a, b float64) {
	f := 0.5 + s.Irregularity*0.9*(rng.Float64()-0.5)
	a = work * f
	b = work - a
	return a, b
}

// BarnesHut returns the calibrated model of the Barnes-Hut N-body
// application the paper evaluates: nBodies bodies simulated for the
// given number of iterations. The constants are calibrated so that on
// 36 DAS-2 nodes (three clusters of twelve) an iteration takes ~10
// virtual seconds at a weighted average efficiency of ~0.5 — the
// paper's "reasonable set of nodes" for scenario 1.
func BarnesHut(nBodies, iterations int) Spec {
	if nBodies <= 0 {
		nBodies = 100000
	}
	// Force computation is O(N log N); normalised so N=100k gives 180
	// speed-seconds of parallel work per iteration.
	n := float64(nBodies)
	ref := 100000 * math.Log2(100000)
	work := 180 * (n * math.Log2(n)) / ref
	return Spec{
		Name:                   fmt.Sprintf("barnes-hut-%dk", nBodies/1000),
		Iterations:             iterations,
		WorkPerIteration:       work,
		SequentialPerIteration: work / 36, // tree build+gather, ~5s at N=100k
		Grain:                  0.1,
		Irregularity:           0.7,
		BytesPerNode:           16 * n, // full body set (join-state transfer)
		// No per-iteration broadcast: as in the Satin implementation,
		// body data travels with the jobs themselves (see JobBytes),
		// which is what makes the application latency-insensitive.
		ExchangeBytes: 0,
		StealMsgBytes: 4096,
	}
}

// VaryingParallelism wraps a spec so its work per iteration follows
// scale(iter) — the paper's scenario of an application whose degree of
// parallelism changes during the computation, to which the adaptation
// component responds by growing and shrinking the node set.
func VaryingParallelism(base Spec, scale func(iter int) float64) Spec {
	base.Name = base.Name + "-varying"
	base.WorkScale = scale
	return base
}
