package apps

import (
	"math"
	"math/rand"

	"repro/satin"
)

// Barnes-Hut N-body simulation — the application of the paper's
// evaluation. Bodies evolve under gravity; each time step builds an
// octree and approximates far-away groups by their centre of mass
// (opening angle theta). The force phase is the parallel part: body
// ranges are divide-and-conquer tasks, exactly how the Satin version
// parallelised it (with the tree replicated per node per iteration —
// here each executing task rebuilds it from the body snapshot it
// carries, the in-process analogue of the per-iteration broadcast).

// Body is one particle.
type Body struct {
	X, Y, Z    float64
	VX, VY, VZ float64
	Mass       float64
}

// Accel is the force-phase output per body.
type Accel struct{ AX, AY, AZ float64 }

// cell is one octree node.
type cell struct {
	cx, cy, cz, half float64 // cube centre and half-width
	mass             float64
	mx, my, mz       float64 // centre of mass (accumulated, then normalised)
	body             int     // body index if leaf (-1 otherwise)
	children         [8]*cell
	leaf             bool
}

// BuildTree constructs the octree over the bodies.
func BuildTree(bodies []Body) *cell {
	if len(bodies) == 0 {
		return nil
	}
	lo, hi := bodies[0], bodies[0]
	for _, b := range bodies {
		lo.X, lo.Y, lo.Z = math.Min(lo.X, b.X), math.Min(lo.Y, b.Y), math.Min(lo.Z, b.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, b.X), math.Max(hi.Y, b.Y), math.Max(hi.Z, b.Z)
	}
	half := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))/2 + 1e-9
	root := &cell{
		cx: (lo.X + hi.X) / 2, cy: (lo.Y + hi.Y) / 2, cz: (lo.Z + hi.Z) / 2,
		half: half, body: -1, leaf: true,
	}
	for i := range bodies {
		root.insert(bodies, i)
	}
	root.finish()
	return root
}

func (c *cell) octant(b Body) int {
	o := 0
	if b.X > c.cx {
		o |= 1
	}
	if b.Y > c.cy {
		o |= 2
	}
	if b.Z > c.cz {
		o |= 4
	}
	return o
}

func (c *cell) childCell(o int) *cell {
	if c.children[o] == nil {
		h := c.half / 2
		nc := &cell{cx: c.cx, cy: c.cy, cz: c.cz, half: h, body: -1, leaf: true}
		if o&1 != 0 {
			nc.cx += h
		} else {
			nc.cx -= h
		}
		if o&2 != 0 {
			nc.cy += h
		} else {
			nc.cy -= h
		}
		if o&4 != 0 {
			nc.cz += h
		} else {
			nc.cz -= h
		}
		c.children[o] = nc
	}
	return c.children[o]
}

func (c *cell) insert(bodies []Body, i int) {
	b := bodies[i]
	c.mass += b.Mass
	c.mx += b.X * b.Mass
	c.my += b.Y * b.Mass
	c.mz += b.Z * b.Mass
	if c.leaf && c.body < 0 {
		c.body = i
		return
	}
	if c.leaf {
		// Split: push the resident body down, unless the cell has
		// become degenerately small (coincident bodies).
		if c.half < 1e-12 {
			return
		}
		old := c.body
		c.body = -1
		c.leaf = false
		c.childCell(c.octant(bodies[old])).insert(bodies, old)
	}
	c.childCell(c.octant(b)).insert(bodies, i)
}

func (c *cell) finish() {
	if c.mass > 0 {
		c.mx /= c.mass
		c.my /= c.mass
		c.mz /= c.mass
	}
	for _, ch := range c.children {
		if ch != nil {
			ch.finish()
		}
	}
}

// force accumulates the acceleration on body i from the subtree.
func (c *cell) force(bodies []Body, i int, theta, softening float64, a *Accel) {
	if c == nil || c.mass == 0 {
		return
	}
	b := bodies[i]
	dx, dy, dz := c.mx-b.X, c.my-b.Y, c.mz-b.Z
	d2 := dx*dx + dy*dy + dz*dz + softening
	if c.leaf {
		if c.body == i || c.body < 0 {
			return
		}
		inv := 1 / (d2 * math.Sqrt(d2))
		a.AX += c.mass * dx * inv
		a.AY += c.mass * dy * inv
		a.AZ += c.mass * dz * inv
		return
	}
	// Opening criterion: treat the cell as one mass when it is far.
	if (2*c.half)*(2*c.half) < theta*theta*d2 {
		inv := 1 / (d2 * math.Sqrt(d2))
		a.AX += c.mass * dx * inv
		a.AY += c.mass * dy * inv
		a.AZ += c.mass * dz * inv
		return
	}
	for _, ch := range c.children {
		if ch != nil {
			ch.force(bodies, i, theta, softening, a)
		}
	}
}

// BHForces is the satin task of the force phase: compute accelerations
// for bodies[Lo:Hi). Tasks split ranges until Grain; every executing
// node rebuilds the tree from the snapshot (the replicated tree of the
// Satin implementation).
type BHForces struct {
	Bodies []Body
	Lo, Hi int
	Theta  float64
	Grain  int
}

// Execute implements satin.Task.
func (t BHForces) Execute(ctx *satin.Context) (any, error) {
	if t.Grain <= 0 {
		t.Grain = 64
	}
	if t.Hi-t.Lo <= t.Grain {
		tree := BuildTree(t.Bodies)
		out := make([]Accel, t.Hi-t.Lo)
		for i := t.Lo; i < t.Hi; i++ {
			tree.force(t.Bodies, i, t.Theta, 1e-6, &out[i-t.Lo])
		}
		return out, nil
	}
	mid := (t.Lo + t.Hi) / 2
	left := ctx.Spawn(BHForces{Bodies: t.Bodies, Lo: t.Lo, Hi: mid, Theta: t.Theta, Grain: t.Grain})
	right := ctx.Spawn(BHForces{Bodies: t.Bodies, Lo: mid, Hi: t.Hi, Theta: t.Theta, Grain: t.Grain})
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	la, _ := left.Value().([]Accel)
	ra, _ := right.Value().([]Accel)
	return append(append([]Accel{}, la...), ra...), nil
}

// StepBodies advances the bodies one leapfrog step using accs.
func StepBodies(bodies []Body, accs []Accel, dt float64) {
	for i := range bodies {
		bodies[i].VX += accs[i].AX * dt
		bodies[i].VY += accs[i].AY * dt
		bodies[i].VZ += accs[i].AZ * dt
		bodies[i].X += bodies[i].VX * dt
		bodies[i].Y += bodies[i].VY * dt
		bodies[i].Z += bodies[i].VZ * dt
	}
}

// Plummer samples a reproducible spherical star cluster.
func Plummer(n int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]Body, n)
	for i := range bodies {
		r := 1 / math.Sqrt(math.Pow(rng.Float64()*0.99+1e-6, -2.0/3)-1)
		u, v := rng.Float64()*2-1, rng.Float64()*2*math.Pi
		s := math.Sqrt(1 - u*u)
		bodies[i] = Body{
			X: r * s * math.Cos(v), Y: r * s * math.Sin(v), Z: r * u,
			Mass: 1.0 / float64(n),
		}
	}
	return bodies
}

func init() {
	satin.Register(BHForces{})
	satin.RegisterValue([]Accel{})
}
