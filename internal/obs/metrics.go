package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Gauge is one instantaneous value (queue depth, latest WAE). The zero
// value reads 0 and is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the named gauge, creating it at zero on first use.
// Naming follows the counter convention, "<layer>/<metric>/<label>".
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.g[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.g[name]; ok {
		return g
	}
	g = &Gauge{}
	r.g[name] = g
	return g
}

// Gauges returns a copy of every gauge's current value.
func (r *Registry) Gauges() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.g))
	for name, g := range r.g {
		out[name] = g.Value()
	}
	return out
}

// Histogram is a fixed-bucket histogram: observations land in the
// first bucket whose upper bound is >= the value (Prometheus "le"
// semantics), with an implicit +Inf bucket at the end. Observe is
// lock-free: one atomic add per bucket/count plus a CAS loop for the
// sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; immutable after creation
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistView is one histogram's snapshot: per-bucket counts (the last
// entry is the +Inf bucket), the observation sum and total count.
type HistView struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use; later resolutions of the same name keep
// the original bounds (pass the same ones). Bounds must be ascending
// and non-empty.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.h[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs bucket bounds", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.h[name]; ok {
		return h
	}
	h = &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.h[name] = h
	return h
}

// Histograms returns a snapshot of every histogram.
func (r *Registry) Histograms() map[string]HistView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistView, len(r.h))
	for name, h := range r.h {
		v := HistView{
			Bounds: h.bounds,
			Counts: make([]uint64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			v.Counts[i] = h.counts[i].Load()
		}
		out[name] = v
	}
	return out
}

// LatencyBuckets are the standard round-trip buckets, in seconds:
// 0.5ms doubling up to ~8s — wide enough for a LAN steal probe and a
// saturated WAN link alike.
var LatencyBuckets = ExpBuckets(0.0005, 2, 15)

// HealthBuckets split the unit objective-health interval in tenths —
// the resolution the batch E_min/E_max thresholds (0.30/0.50) operate
// at; streaming health above 1 (comfortably under the latency target)
// lands in the implicit +Inf bucket.
var HealthBuckets = LinearBuckets(0.1, 0.1, 10)

// DepthBuckets are power-of-two queue-depth buckets.
var DepthBuckets = ExpBuckets(1, 2, 12)

// ExpBuckets returns n upper bounds starting at start, multiplying by
// factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds starting at start, adding step.
func LinearBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
