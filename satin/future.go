package satin

import (
	"sync"
	"sync/atomic"
)

// Future is the eventual result of a spawned task. It resolves when the
// task completes locally or its result message arrives from the thief
// that executed it. Access the value only after the owning frame's
// Sync returned (or after Wait for root tasks).
type Future struct {
	mu     sync.Mutex  // serialises complete against Wait
	done   atomic.Bool // set after val and err: a reader that sees it may read both bare
	val    any
	err    error
	notify chan struct{}
}

func (f *Future) complete(val any, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done.Load() {
		return false // duplicate result (e.g. recomputation raced a late reply)
	}
	f.val = val
	f.err = err
	f.done.Store(true)
	if f.notify != nil {
		close(f.notify)
	}
	return true
}

// Wait blocks until the future resolves. Intended for root tasks
// submitted with Node.Submit; inside task code use Sync instead.
func (f *Future) Wait() {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		return
	}
	if f.notify == nil {
		f.notify = make(chan struct{})
	}
	ch := f.notify
	f.mu.Unlock()
	<-ch
}

// Done reports whether the result is available. Sync polls it once
// per child, so it is one atomic load, not a lock.
func (f *Future) Done() bool { return f.done.Load() }

// Result returns the value and error; valid after Sync (nil, nil
// while pending).
func (f *Future) Result() (any, error) {
	if !f.done.Load() {
		return nil, nil
	}
	return f.val, f.err
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
