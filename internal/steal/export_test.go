package steal

import (
	"math/rand"

	"repro/internal/core"
)

// newDirect builds an engine that draws its victims straight from
// math/rand, without the Engine's draw buffer: the reference the
// buffered engine must match draw for draw.
func newDirect(policy Policy, self core.NodeID, cluster core.ClusterID, seed int64) *Engine {
	e := New(policy, self, cluster, seed)
	e.rng = rand.New(rand.NewSource(seed))
	return e
}

// hasSource reports whether the engine has built its math/rand source.
func (e *Engine) hasSource() bool { return e.draws.src != nil }
