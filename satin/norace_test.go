//go:build !race

package satin

// raceAllowance is zero without the race detector (see race_test.go).
const raceAllowance = 0

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
