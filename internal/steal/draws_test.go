package steal

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// drawSeeds are the streams the draw tests replay: the first node of
// the 2,000-node world at run seed 1, and twenty more.
func drawSeeds() []int64 {
	seeds := []int64{SeedFor(1, "g000/00")}
	for i := int64(0); i < 20; i++ {
		seeds = append(seeds, SeedFor(i, core.NodeID(fmt.Sprintf("c%d/%02d", i%3, i))))
	}
	return seeds
}

// An engine's buffered draws are math/rand's, value for value: Intn
// over bounds that take the power-of-two mask, the plain modulus and
// the rejection loop, across many refills of the buffer, and again
// after a reseed drops what is buffered.
func TestDrawsMatchMathRand(t *testing.T) {
	bounds := []int{1, 2, 3, 16, 49, 50, 1999, 1<<31 - 1}
	for _, seed := range drawSeeds() {
		e := New(CRS, "c0/00", "c0", seed)
		want := rand.New(rand.NewSource(seed))
		check := func(phase string) {
			for i := 0; i < 8*drawBuf; i++ {
				n := bounds[i%len(bounds)]
				if got, w := e.rng.Intn(n), want.Intn(n); got != w {
					t.Fatalf("seed %d %s draw %d: Intn(%d) = %d, math/rand gives %d", seed, phase, i, n, got, w)
				}
				if i%13 == 0 {
					if got, w := e.rng.Uint64(), want.Uint64(); got != w {
						t.Fatalf("seed %d %s draw %d: Uint64 = %d, math/rand gives %d", seed, phase, i, got, w)
					}
				}
			}
		}
		check("first")
		e.rng.Intn(7) // leave values in the buffer for the reseed to drop
		e.rng.Seed(seed + 1)
		want.Seed(seed + 1)
		check("reseeded")
	}
}

// An engine builds its math/rand source at its first draw, not in New
// or Seed: until then it holds none, and from then on, as after a
// reseed, the first 200 draws are math/rand's.
func TestDrawsSeedAtFirstDraw(t *testing.T) {
	for _, seed := range drawSeeds() {
		e := New(CRS, "c0/00", "c0", seed)
		e.rng.Seed(seed) // a reseed before any draw builds nothing either
		if e.hasSource() {
			t.Fatalf("seed %d: the engine built its source before its first draw", seed)
		}
		for phase, s := range []int64{seed, seed + 1} {
			if phase > 0 {
				e.rng.Seed(s)
			}
			want := rand.New(rand.NewSource(s))
			for i := 0; i < 200; i++ {
				if got, w := e.rng.Int63(), want.Int63(); got != w {
					t.Fatalf("seed %d phase %d draw %d: %d, math/rand gives %d", s, phase, i, got, w)
				}
			}
		}
	}
}

// A randomized NextView run under both policies, over rebuilt views of
// changing size and with hits and misses mixed in, gives the same
// directives whether the engine draws through its buffer or straight
// from math/rand.
func TestNextViewDrawsMatchDirect(t *testing.T) {
	self, home := core.NodeID("c1/01"), core.ClusterID("c1")
	for _, seed := range drawSeeds() {
		script := rand.New(rand.NewSource(seed))
		for _, policy := range []Policy{CRS, Random} {
			e, ref := New(policy, self, home, seed), newDirect(policy, self, home, seed)
			view := NewView()
			for step := 0; step < 240; step++ {
				if step%10 == 0 {
					var ms []Member
					for c := 0; c < 1+script.Intn(5); c++ {
						cl := core.ClusterID(fmt.Sprintf("c%d", c))
						for n := 0; n < script.Intn(40); n++ {
							ms = append(ms, Member{ID: core.NodeID(fmt.Sprintf("%s/%02d", cl, n)), Cluster: cl})
						}
					}
					view.Rebuild(ms)
				}
				d, r := e.NextView(float64(step), view), ref.NextView(float64(step), view)
				if d != r {
					t.Fatalf("seed %d policy %v step %d: buffered %+v, direct %+v", seed, policy, step, d, r)
				}
				got := script.Intn(4) == 0
				for _, eng := range []*Engine{e, ref} {
					if d.HasSync {
						eng.SyncDone(got)
					}
					if d.HasAsync && step%3 != 0 {
						eng.AsyncDone(got)
					}
				}
			}
			if e.Stats() != ref.Stats() {
				t.Fatalf("seed %d policy %v: stats %+v, direct %+v", seed, policy, e.Stats(), ref.Stats())
			}
		}
	}
}
