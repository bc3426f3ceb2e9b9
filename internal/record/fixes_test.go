package record

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Sample-ring wraparound must be counted and announced exactly like
// the events path — the package doc promises "the drop is counted,
// never silent".
func TestSampleDropCounted(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a").Inc()
	r := New(4, 2)
	for i := 0; i < 5; i++ {
		r.Sample(reg)
	}
	if got := r.SamplesDropped(); got != 3 {
		t.Fatalf("SamplesDropped = %d, want 3", got)
	}
	var sb strings.Builder
	if err := r.WriteSamplesJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want dropped marker + 2 samples: %q", len(lines), lines)
	}
	var drop struct {
		Kind  string `json:"kind"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &drop); err != nil {
		t.Fatal(err)
	}
	if drop.Kind != "dropped" || drop.Count != 3 {
		t.Fatalf("first line = %+v, want dropped/3", drop)
	}
}

// Ring edge cases: capacity 1 (every push after the first is a drop)
// and the exact-wrap boundary (filling to capacity drops nothing; one
// more drops exactly one).
func TestRingEdgeCases(t *testing.T) {
	r := New(1, 1)
	reg := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		r.RecordAt(float64(i), "e", nil)
		r.Sample(reg)
	}
	if evs := r.Events(); len(evs) != 1 || evs[0].Time != 2 {
		t.Fatalf("capacity-1 events = %+v", evs)
	}
	if got := r.EventsDropped(); got != 2 {
		t.Fatalf("capacity-1 events dropped = %d, want 2", got)
	}
	if got := r.SamplesDropped(); got != 2 {
		t.Fatalf("capacity-1 samples dropped = %d, want 2", got)
	}

	r = New(3, 3)
	for i := 0; i < 3; i++ {
		r.RecordAt(float64(i), "e", nil)
		r.Sample(reg)
	}
	if r.EventsDropped() != 0 || r.SamplesDropped() != 0 {
		t.Fatalf("exact fill dropped events=%d samples=%d, want 0/0",
			r.EventsDropped(), r.SamplesDropped())
	}
	r.RecordAt(3, "e", nil)
	r.Sample(reg)
	if r.EventsDropped() != 1 || r.SamplesDropped() != 1 {
		t.Fatalf("one past capacity dropped events=%d samples=%d, want 1/1",
			r.EventsDropped(), r.SamplesDropped())
	}
}

// Events and samples must live on ONE time axis: when a driver
// installs a virtual clock, samples are stamped by it too, so
// /events and /samples can be joined post-hoc.
func TestSetClockSharesAxis(t *testing.T) {
	r := New(8, 8)
	reg := obs.NewRegistry()
	vtime := 0.0
	r.SetClock(func() float64 { return vtime })

	vtime = 100
	r.Record("period", nil)
	r.Sample(reg)
	vtime = 200
	r.RecordJob("j1", "decision", nil)
	r.Sample(reg)

	evs, ss := r.Events(), r.Samples()
	if evs[0].Time != 100 || ss[0].Time != 100 {
		t.Fatalf("t=100: event at %g, sample at %g — axes diverged", evs[0].Time, ss[0].Time)
	}
	if evs[1].Time != 200 || ss[1].Time != 200 {
		t.Fatalf("t=200: event at %g, sample at %g — axes diverged", evs[1].Time, ss[1].Time)
	}
	if evs[1].Job != "j1" {
		t.Fatalf("RecordJob lost the job attribution: %+v", evs[1])
	}

	// nil restores the wall clock.
	r.SetClock(nil)
	if now := r.Now(); now >= 100 {
		t.Fatalf("wall clock not restored: Now() = %g", now)
	}
}

// capturingSink records everything forwarded through the Sink seam.
type capturingSink struct {
	events  []Event
	samples []Sample
}

func (c *capturingSink) PutEvent(e Event)   { c.events = append(c.events, e) }
func (c *capturingSink) PutSample(s Sample) { c.samples = append(c.samples, s) }

func TestSinkReceivesEventsAndSamples(t *testing.T) {
	r := New(4, 4)
	sink := &capturingSink{}
	r.SetSink(sink)
	if r.Sink() != Sink(sink) {
		t.Fatal("Sink does not return the attached sink")
	}
	reg := obs.NewRegistry()
	reg.Counter("c").Inc()

	r.RecordAt(1, "period", map[string]any{"WAE": 0.5})
	r.RecordJob("j1", "decision", nil)
	r.Sample(reg)

	if len(sink.events) != 2 || sink.events[0].Kind != "period" || sink.events[1].Job != "j1" {
		t.Fatalf("sink events = %+v", sink.events)
	}
	if len(sink.samples) != 1 || sink.samples[0].Counters["c"] != 1 {
		t.Fatalf("sink samples = %+v", sink.samples)
	}

	r.SetSink(nil)
	if r.Sink() != nil {
		t.Fatal("Sink after detaching is not nil")
	}
	r.RecordAt(2, "period", nil)
	if len(sink.events) != 2 {
		t.Fatal("detached sink still receiving")
	}
}

// A wedged client — connected, never finishing its request headers —
// must not hold the endpoint's connection forever: ReadHeaderTimeout
// reclaims it, and regular requests keep being served.
func TestServeWedgedClient(t *testing.T) {
	old := headerTimeout
	headerTimeout = 100 * time.Millisecond
	defer func() { headerTimeout = old }()

	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, New(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request but never finish the headers.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\nX-Wedge")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// The server must terminate the connection promptly: a plain close
	// (EOF) or a 4xx error followed by close — never a served
	// /metrics response, never an indefinite hold.
	got, _ := io.ReadAll(conn)
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("wedged connection held for %v — ReadHeaderTimeout not applied", waited)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 4") {
		t.Fatalf("half-sent request got served: %.80q", got)
	}

	// The endpoint still serves well-behaved clients.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("healthy request after wedged client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after wedged client", resp.StatusCode)
	}
}

// Listener failure must surface through obs, not vanish: the serve
// goroutine's error was previously discarded.
func TestServeErrorCounted(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, New(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Yank the listener out from under the server: Serve returns a
	// non-shutdown error, which must be counted.
	srv.ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("record/serve_err").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("record/serve_err").Value(); got == 0 {
		t.Fatal("record/serve_err not incremented after listener failure")
	}
	srv.Close()
}
