//go:build !race

package satin

// raceAllowance is zero without the race detector (see race_test.go).
const raceAllowance = 0
