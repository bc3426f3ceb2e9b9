package apps

// ForcesSequential computes all accelerations directly: the reference
// the parallel force phase is compared against.
func ForcesSequential(bodies []Body, theta float64) []Accel {
	tree := BuildTree(bodies)
	out := make([]Accel, len(bodies))
	for i := range bodies {
		tree.force(bodies, i, theta, 1e-6, &out[i])
	}
	return out
}
