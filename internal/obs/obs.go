// Package obs is the runtime's metric spine: a registry of named
// monotonic counters, gauges and fixed-bucket histograms that the
// messaging substrate, the steal path and the adaptation kernel feed,
// and that the chaos harness, the recorder (internal/record) and the
// binaries read back — so injected corruption, steal latency and
// per-period efficiency are accounted for instead of vanishing.
//
// Layering rule: obs depends on nothing but the standard library. Any
// package may feed it; internal/record samples it; exporters
// (WriteText, WritePrometheus) render it. Nothing in here may
// import another repro package.
//
// The hot path is allocation-free: callers resolve a *Counter /
// *Gauge / *Histogram once (registration time, session setup) and
// then only touch its atomics.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is one monotonic counter. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry holds named counters, gauges and histograms. Instrument
// resolution takes a lock and may allocate; keep the returned pointer
// and touch its atomics lock-free.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Counter
	g  map[string]*Gauge
	h  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		m: make(map[string]*Counter),
		g: make(map[string]*Gauge),
		h: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the wire layer feeds.
var Default = NewRegistry()

// Counter returns the named counter, creating it at zero on first use.
// Names are conventionally "<layer>/<metric>/<label>", e.g.
// "wire/frames_in/steal" or "wire/bytes_out/lc0>lc1".
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.m[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.m[name]; ok {
		return c
	}
	c = &Counter{}
	r.m[name] = c
	return c
}

// Remove drops the named counters and gauges, so a series whose subject
// is gone (a finished job's) stops being exported and sampled. A name
// resolved again afterwards starts a new series at zero; a pointer
// resolved before keeps working but is no longer read.
func (r *Registry) Remove(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.m, name)
		delete(r.g, name)
	}
}

// Snapshot returns a copy of every counter's current value.
func (r *Registry) Snapshot() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.m))
	for name, c := range r.m {
		out[name] = c.Value()
	}
	return out
}

// Total sums every counter whose name starts with prefix — e.g.
// Total("wire/decode_err/") is the process-wide decode-error count.
func (r *Registry) Total(prefix string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum uint64
	for name, c := range r.m {
		if strings.HasPrefix(name, prefix) {
			sum += c.Value()
		}
	}
	return sum
}

// WriteText dumps the non-zero counters, sorted by name — the binaries'
// end-of-run accounting report.
func (r *Registry) WriteText(w io.Writer) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %d\n", name, snap[name])
	}
}
