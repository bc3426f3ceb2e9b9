// Package record is the time-series layer between the obs registry and
// the exporters: a ring-buffered recorder that keeps (a) structured
// events — coordinator period records, adaptation decisions, run
// annotations — and (b) periodic samples of the whole obs registry, so
// a run's metric trajectory can be exported (JSONL, or scraped as
// Prometheus text via the bundled HTTP server) without ever growing
// unboundedly.
//
// Layering: obs depends on nothing; record depends on obs (it samples
// registries) and stdlib; the binaries wire a Recorder to their
// coordinator and serve it. Runtime packages never import record —
// they feed obs, and the event feed goes through plain callbacks
// (adapt.Config.Observer), so the hot paths stay free of JSON and
// HTTP.
package record

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// Event is one structured occurrence on the run's time axis. Data is
// marshalled as-is into the JSONL export; keep it a plain struct or
// map. Job, when set, attributes the event to one job of the
// multi-job service so durable sinks can index per-job decision logs.
type Event struct {
	Time float64 `json:"t"`
	Kind string  `json:"kind"`
	Job  string  `json:"job,omitempty"`
	Data any     `json:"data,omitempty"`
}

// Sample is one snapshot of an obs registry.
type Sample struct {
	Time     float64            `json:"t"`
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Sink receives every event and sample the recorder retains, as it
// arrives — the seam durable backends (internal/store) implement while
// the ring stays the bounded in-memory view. Sink methods are called
// from the recorder's producer paths (coordinator observer callbacks,
// the background sampler) and therefore must never block: enqueue or
// drop-and-count, never wait.
type Sink interface {
	PutEvent(Event)
	PutSample(Sample)
}

// Recorder keeps bounded rings of events and samples. Safe for
// concurrent use.
type Recorder struct {
	start time.Time

	mu             sync.Mutex
	clock          func() float64 // nil = wall seconds since start
	sink           Sink
	events         ring[Event]
	samples        ring[Sample]
	eventsDropped  uint64
	samplesDropped uint64
}

// New builds a recorder holding at most eventCap events and sampleCap
// samples; the oldest entries are overwritten when a ring is full
// (the drop is counted, never silent).
func New(eventCap, sampleCap int) *Recorder {
	return &Recorder{
		start:   time.Now(),
		events:  newRing[Event](eventCap),
		samples: newRing[Sample](sampleCap),
	}
}

// SetClock replaces the recorder's clock — the timestamp source for
// Record, RecordJob and Sample — so a driver living on virtual time
// (the DES behind gridsim) can put events AND samples on one shared
// axis instead of mixing virtual event stamps with wall-clock sample
// stamps. nil restores the default wall clock (seconds since New).
func (r *Recorder) SetClock(clock func() float64) {
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Now returns the recorder's clock: seconds since New, unless SetClock
// installed another time source.
func (r *Recorder) Now() float64 {
	r.mu.Lock()
	clock := r.clock
	r.mu.Unlock()
	if clock != nil {
		return clock()
	}
	return time.Since(r.start).Seconds()
}

// SetSink attaches a durable sink: every subsequent event and sample
// is forwarded to it (in addition to the ring). nil detaches.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Sink returns the attached durable sink (nil if none), so a reader can
// reach what the sink offers beyond Sink, such as the record store's
// per-job lookup.
func (r *Recorder) Sink() Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// Record appends an event stamped with the recorder's own clock.
func (r *Recorder) Record(kind string, data any) {
	r.RecordAt(r.Now(), kind, data)
}

// RecordAt appends an event with an explicit timestamp (e.g. a
// simulator's virtual time or a coordinator's period time).
func (r *Recorder) RecordAt(t float64, kind string, data any) {
	r.push(Event{Time: t, Kind: kind, Data: data})
}

// RecordJob appends an event attributed to one job of the multi-job
// service, stamped with the recorder's clock.
func (r *Recorder) RecordJob(job, kind string, data any) {
	r.push(Event{Time: r.Now(), Kind: kind, Job: job, Data: data})
}

func (r *Recorder) push(ev Event) {
	r.mu.Lock()
	if r.events.full() {
		r.eventsDropped++
	}
	r.events.push(ev)
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.PutEvent(ev)
	}
}

// Sample snapshots reg into the sample ring.
func (r *Recorder) Sample(reg *obs.Registry) {
	s := Sample{Time: r.Now(), Counters: reg.Snapshot(), Gauges: reg.Gauges()}
	r.mu.Lock()
	if r.samples.full() {
		r.samplesDropped++
	}
	r.samples.push(s)
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.PutSample(s)
	}
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.all()
}

// WriteEventsJSONL writes the retained events as one JSON object per
// line. When wraparound has dropped events, the first line says so.
func (r *Recorder) WriteEventsJSONL(w io.Writer) error {
	r.mu.Lock()
	events := r.events.all()
	dropped := r.eventsDropped
	r.mu.Unlock()
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, `{"kind":"dropped","count":%d}`+"\n", dropped); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteSamplesJSONL writes the retained registry samples as JSONL.
// As with events, wraparound drops are announced on the first line —
// the drop is counted, never silent.
func (r *Recorder) WriteSamplesJSONL(w io.Writer) error {
	r.mu.Lock()
	samples := r.samples.all()
	dropped := r.samplesDropped
	r.mu.Unlock()
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, `{"kind":"dropped","count":%d}`+"\n", dropped); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf  []T
	next int
	n    int // entries held, <= len(buf)
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) full() bool { return r.n == len(r.buf) }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring[T]) all() []T {
	out := make([]T, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
