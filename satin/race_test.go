//go:build race

package satin

import "time"

// raceAllowance is what the race detector adds to a timing bound that
// spans a few hops of the emulated fabric: it roughly triples each
// hop's cost on the delivery path.
const raceAllowance = time.Millisecond

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
