// Package sigdrain is the binaries' shared SIGINT/SIGTERM handling:
// the first signal triggers a graceful drain (finish or cancel jobs,
// flush the recorder) and exits with the drain's code; a second signal
// while draining force-exits immediately. Both satinrun and satind
// install it, so ctrl-C never leaves half-flushed observability or
// orphaned jobs.
package sigdrain

import (
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Install starts watching for SIGINT/SIGTERM. On the first signal the
// drain function runs once and the process exits with its return
// value; a second signal during the drain exits 130 at once. The
// returned release function uninstalls the handler (for a clean
// natural exit). Once a drain has begun the handler owns the exit:
// release then blocks until the process is gone, so a main whose wait
// the drain itself ended (a cancelled job closing its Done channel)
// calls release before it looks at the outcome and cannot race the
// drain to an exit of its own.
func Install(name string, drain func() int) (release func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	var (
		mu       sync.Mutex // taken for good by the handler when a drain begins
		released bool
	)
	go func() {
		select {
		case sig := <-ch:
			mu.Lock()
			if released {
				mu.Unlock()
				return
			}
			log.Printf("%s: received %v, draining (signal again to force quit)", name, sig)
			go func() {
				<-ch
				os.Exit(130)
			}()
			os.Exit(drain())
		case <-done:
		}
	}()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if !released {
			released = true
			signal.Stop(ch)
			close(done)
		}
	}
}
