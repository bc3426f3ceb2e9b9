//go:build !linux

package transport

import "time"

// sleepFine is the portable stand-in for the Linux nanosleep: the
// runtime's own timer, which is as fine as the platform's poller. The
// delay stays a lower bound everywhere; the sub-millisecond fidelity
// DESIGN.md promises is Linux's.
func sleepFine(d time.Duration) { time.Sleep(d) }
