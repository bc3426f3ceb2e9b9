package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the harness recorded around one of its own
// calls into a layer. Spans of one op share Op; Parent is the span
// that caused it (0 = none). Times are microseconds since the tracer
// started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is the untraced run.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]map[string]uint64 // boundary name -> registry counters
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]map[string]uint64)}
}

// begin opens a span and returns its id (0 when not tracing).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: now})
	return id
}

// opTrace is the tracer as one timed op sees it: every span the op
// opens shares the op's id and hangs under the op's own span. The zero
// value records nothing.
type opTrace struct {
	tr         *tracer
	op, parent int
}

func (o opTrace) begin(name string) int { return o.tr.begin(name, o.op, o.parent) }
func (o opTrace) end(id int)            { o.tr.end(id) }

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// mark stores the registry's counters at a span boundary.
func (t *tracer) mark(boundary string, s snapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[boundary] = s.counters
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childMS := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			childMS[s.Parent] += (s.EndUS - s.StartUS) / 1000
		}
	}
	byName := make(map[string]*spanStat)
	durs := make(map[string][]float64)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := (s.EndUS - s.StartUS) / 1000
		st.Count++
		st.TotalMS += d
		st.SelfMS += d - childMS[s.ID]
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanStat, 0, len(byName))
	for name, st := range byName {
		st.P50MS = median(durs[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durations returns the lengths (ms) of every span of one name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1000)
		}
	}
	return out
}

const resultsDir = "results/bench"

// write stores the trace next to the run's other results.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := struct {
		Workload string                       `json:"workload"`
		Summary  []spanStat                   `json:"summary"`
		Counters map[string]map[string]uint64 `json:"counters"`
		Spans    []span                       `json:"spans"`
	}{Workload: workload, Counters: t.counters, Spans: t.spans}
	t.mu.Unlock()
	doc.Summary = t.stats()
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(resultsDir, workload+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
