package satin

import (
	"sync/atomic"
	"time"
)

// Future states. A future is completed once: the CAS from futPending to
// futClaimed elects the one writer, which stores the outcome and then
// publishes it with the final state.
const (
	futPending uint32 = iota
	futClaimed
	futValue // out holds the task's value
	futError // out holds the task's error
)

// Future is the eventual result of a spawned task. It resolves when the
// task completes locally or its result message arrives from the thief
// that executed it. Access the value only after the owning frame's
// Sync returned (or after Wait for root tasks).
//
// A Future returned by Context.Spawn lives in its parent's frame and is
// valid until the spawning task returns, like the Context itself: the
// runtime reuses it for a later spawn. A Future returned by Node.Submit
// belongs to the caller.
type Future struct {
	state  atomic.Uint32
	out    any           // the value or the error; the state says which
	notify chan struct{} // Submit roots only: closed when the result is in
}

func (f *Future) complete(val any, err error) bool {
	if !f.state.CompareAndSwap(futPending, futClaimed) {
		return false // duplicate result (e.g. recomputation raced a late reply)
	}
	next := futValue
	f.out = val
	if err != nil {
		next, f.out = futError, err
	}
	// Everything complete needs from f is read before the state says
	// done: from then on the owner may reuse a spawn slot's future.
	ch := f.notify
	f.state.Store(next)
	if ch != nil {
		close(ch)
	}
	return true
}

// Wait blocks until the future resolves. Intended for root tasks
// submitted with Node.Submit, whose futures carry a channel; inside task
// code use Sync instead. Any other future is polled.
func (f *Future) Wait() {
	if f.notify != nil {
		<-f.notify
		return
	}
	for d := time.Microsecond; !f.Done(); d = min(2*d, time.Millisecond) {
		time.Sleep(d)
	}
}

// Done reports whether the result is available. Sync polls it once
// per child, so it is one atomic load.
func (f *Future) Done() bool { return f.state.Load() >= futValue }

// Result returns the value and error; valid after Sync (nil, nil
// while pending).
func (f *Future) Result() (any, error) {
	switch f.state.Load() {
	case futValue:
		return f.out, nil
	case futError:
		return nil, f.out.(error)
	}
	return nil, nil
}

// Value returns the raw value (nil if errored or pending).
func (f *Future) Value() any {
	v, _ := f.Result()
	return v
}

// Err returns the task's error, if any.
func (f *Future) Err() error {
	_, err := f.Result()
	return err
}

// Int is a convenience accessor for integer-valued tasks.
func (f *Future) Int() int {
	if v, ok := f.Value().(int); ok {
		return v
	}
	return 0
}

// Float is a convenience accessor for float-valued tasks.
func (f *Future) Float() float64 {
	switch v := f.Value().(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return 0
}
