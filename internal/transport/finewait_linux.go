package transport

import (
	"syscall"
	"time"
)

// timerSlack is how much later than asked the kernel may end a
// nanosleep: Linux lets a thread's timers slip by up to 50 µs so it can
// coalesce wake-ups. sleepFine asks for that much less; the caller's
// yield loop covers what is left when the kernel was punctual.
const timerSlack = 50 * time.Microsecond

// sleepFine blocks the calling thread for about d, d under a
// millisecond. Unlike time.Sleep it does not go through the Go
// netpoller, whose idle wait is a whole number of milliseconds. It may
// return early (by up to timerSlack, or on a signal), never late by
// more than scheduling noise.
func sleepFine(d time.Duration) {
	if d -= timerSlack; d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller re-reads the clock
}
