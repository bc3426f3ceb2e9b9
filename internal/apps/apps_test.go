package apps

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/registry"
	"repro/satin"
)

func newTestGrid(t *testing.T, clusters ...satin.ClusterSpec) *satin.Grid {
	t.Helper()
	fast := registry.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    100 * time.Millisecond,
	}
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters:   clusters,
		Registry:   fast,
		LANLatency: 50 * time.Microsecond,
		WANLatency: time.Millisecond,
		Node: satin.NodeConfig{
			LocalStealTimeout: 100 * time.Millisecond,
			WANStealTimeout:   500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func runOn(t *testing.T, nodes int, task satin.Task) any {
	t.Helper()
	g := newTestGrid(t, satin.ClusterSpec{Name: "c0", Nodes: nodes})
	ns, err := g.StartNodes("c0", nodes)
	if err != nil {
		t.Fatal(err)
	}
	val, err := ns[0].Run(task)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

func TestFibDistributed(t *testing.T) {
	val := runOn(t, 3, Fib{N: 20, SeqCutoff: 8})
	if val.(int) != FibLeaves(20) {
		t.Fatalf("fib(20) = %v, want %d", val, FibLeaves(20))
	}
}

func TestFibLeavesClosedForm(t *testing.T) {
	want := 1
	prev := 1
	for n := 2; n < 20; n++ {
		want, prev = want+prev, want
		got := FibLeaves(n)
		if got != want {
			t.Fatalf("FibLeaves(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNQueensDistributed(t *testing.T) {
	for _, n := range []int{6, 8} {
		val := runOn(t, 2, NQueens{N: n, SpawnDepth: 2})
		if val.(int) != QueensSolutions(n) {
			t.Fatalf("queens(%d) = %v, want %d", n, val, QueensSolutions(n))
		}
	}
}

func TestNQueensRejectsBadSize(t *testing.T) {
	g := newTestGrid(t, satin.ClusterSpec{Name: "c0", Nodes: 1})
	ns, _ := g.StartNodes("c0", 1)
	if _, err := ns[0].Run(NQueens{N: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestIntegrateKnownValues(t *testing.T) {
	cases := []struct {
		fn      string
		a, b    float64
		want    float64
		withinn float64
	}{
		{"constant", 0, 5, 5, 1e-9},
		{"poly", 0, 2, 2, 1e-6},                    // x^3-2x+1 over [0,2] = 4-4+2
		{"sin", 0, math.Pi, 2, 1e-6},               // ∫sin = 2
		{"gauss", -6, 6, math.Sqrt(math.Pi), 1e-5}, // erf-complete
	}
	g := newTestGrid(t, satin.ClusterSpec{Name: "c0", Nodes: 2})
	ns, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		val, err := ns[0].Run(Integrate{Fn: c.fn, A: c.a, B: c.b, Eps: 1e-9})
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		if got := val.(float64); math.Abs(got-c.want) > c.withinn {
			t.Errorf("∫%s over [%v,%v] = %v, want %v", c.fn, c.a, c.b, got, c.want)
		}
	}
}

func TestIntegrateUnknownIntegrand(t *testing.T) {
	g := newTestGrid(t, satin.ClusterSpec{Name: "c0", Nodes: 1})
	ns, _ := g.StartNodes("c0", 1)
	if _, err := ns[0].Run(Integrate{Fn: "nope", A: 0, B: 1, Eps: 1e-6}); err == nil {
		t.Fatal("unknown integrand accepted")
	}
}

func TestTSPMatchesBruteForce(t *testing.T) {
	dist := RandomCities(8, 7)
	val := runOn(t, 2, NewTSP(dist, 3))
	got := val.(TourResult)

	// Brute force reference.
	best := math.Inf(1)
	perm := make([]int, 0, 8)
	used := make([]bool, 8)
	var rec func(last int, cost float64)
	rec = func(last int, cost float64) {
		if len(perm) == 8 {
			if total := cost + dist[last][0]; total < best {
				best = total
			}
			return
		}
		for c := 1; c < 8; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			perm = append(perm, c)
			rec(c, cost+dist[last][c])
			perm = perm[:len(perm)-1]
			used[c] = false
		}
	}
	perm = append(perm, 0)
	rec(0, 0)
	perm = perm[:0]

	if math.Abs(got.Cost-best) > 1e-9 {
		t.Fatalf("tsp cost = %v, brute force = %v", got.Cost, best)
	}
	if len(got.Path) != 8 {
		t.Fatalf("tour length = %d", len(got.Path))
	}
}

func TestBarnesHutTreeMassConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		bodies := Plummer(n, seed)
		tree := BuildTree(bodies)
		total := 0.0
		for _, b := range bodies {
			total += b.Mass
		}
		return tree != nil && math.Abs(treeMass(tree)-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func treeMass(c *cell) float64 {
	if c == nil {
		return 0
	}
	return c.mass
}

func TestBarnesHutThetaZeroMatchesDirect(t *testing.T) {
	bodies := Plummer(64, 3)
	// theta=0 never opens cells as groups: exact pairwise sums.
	approx := ForcesSequential(bodies, 0)
	for i := range bodies {
		var want Accel
		for j := range bodies {
			if i == j {
				continue
			}
			dx := bodies[j].X - bodies[i].X
			dy := bodies[j].Y - bodies[i].Y
			dz := bodies[j].Z - bodies[i].Z
			d2 := dx*dx + dy*dy + dz*dz + 1e-6
			inv := 1 / (d2 * math.Sqrt(d2))
			want.AX += bodies[j].Mass * dx * inv
			want.AY += bodies[j].Mass * dy * inv
			want.AZ += bodies[j].Mass * dz * inv
		}
		if math.Abs(approx[i].AX-want.AX) > 1e-6 ||
			math.Abs(approx[i].AY-want.AY) > 1e-6 ||
			math.Abs(approx[i].AZ-want.AZ) > 1e-6 {
			t.Fatalf("body %d: tree %v vs direct %v", i, approx[i], want)
		}
	}
}

func TestBarnesHutDistributedMatchesSequential(t *testing.T) {
	bodies := Plummer(512, 5)
	seq := ForcesSequential(bodies, 0.5)
	val := runOn(t, 3, BHForces{Bodies: bodies, Lo: 0, Hi: len(bodies), Theta: 0.5, Grain: 64})
	par := val.([]Accel)
	if len(par) != len(seq) {
		t.Fatalf("lengths differ: %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		if math.Abs(par[i].AX-seq[i].AX) > 1e-9 ||
			math.Abs(par[i].AY-seq[i].AY) > 1e-9 ||
			math.Abs(par[i].AZ-seq[i].AZ) > 1e-9 {
			t.Fatalf("body %d: parallel %v vs sequential %v", i, par[i], seq[i])
		}
	}
}

func TestBarnesHutStepConservesMomentumApproximately(t *testing.T) {
	bodies := Plummer(128, 9)
	for iter := 0; iter < 3; iter++ {
		accs := ForcesSequential(bodies, 0.3)
		StepBodies(bodies, accs, 0.01)
	}
	var px, py, pz float64
	for _, b := range bodies {
		px += b.VX * b.Mass
		py += b.VY * b.Mass
		pz += b.VZ * b.Mass
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 0.05 {
		t.Errorf("net momentum drifted: (%v, %v, %v)", px, py, pz)
	}
}

func TestPlummerReproducible(t *testing.T) {
	a, b := Plummer(32, 11), Plummer(32, 11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different bodies")
		}
	}
	c := Plummer(32, 12)
	if a[0] == c[0] {
		t.Fatal("different seeds produced identical first body")
	}
}

func TestKnapsackMatchesDP(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		k := RandomKnapsack(18, seed)
		want := KnapsackDP(k.Weights, k.Values, k.Capacity)
		val := runOn(t, 2, k)
		if val.(int) != want {
			t.Fatalf("seed %d: branch-and-bound = %v, DP = %d", seed, val, want)
		}
	}
}

func TestKnapsackEmptyAndTight(t *testing.T) {
	k := Knapsack{Weights: []int{5, 5}, Values: []int{10, 10}, Capacity: 0, SpawnDepth: 1}
	if val := runOn(t, 1, k); val.(int) != 0 {
		t.Fatalf("zero capacity = %v, want 0", val)
	}
	k2 := Knapsack{Weights: []int{3, 4, 5}, Values: []int{3, 4, 5}, Capacity: 12, SpawnDepth: 2}
	if val := runOn(t, 1, k2); val.(int) != 12 {
		t.Fatalf("take-everything = %v, want 12", val)
	}
}
