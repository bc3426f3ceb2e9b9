package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the program's own chatter
	os.Exit(m.Run())
}

// inTempDir runs the test from a scratch directory, so that nothing a
// run writes under results/ lands in the repository.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func smokeConfig(workload string) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 200 * time.Millisecond, trace: true, smoke: true}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryMetric drives every workload through its shrunken
// inputs, traced, and checks that every metric ISSUE 12 names is
// present, well-formed and finite, and that no op failed.
func TestSmokeEveryMetric(t *testing.T) {
	inTempDir(t)
	for _, w := range workloadNames {
		r, err := run(smokeConfig(w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w, r.Failed, r.Attempted)
		}
		have := make(map[string]metric)
		for _, m := range r.Metrics {
			if !metricName.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("%s: metric %q (unit %q) is malformed", w, m.Name, m.Unit)
			}
			if m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)) {
				t.Errorf("%s: metric %s is not finite", w, m.Name)
			}
			have[m.Name] = m
		}
		for _, d := range endToEnd {
			m, ok := have[d.name]
			if ok != d.definedOn(w) {
				t.Errorf("%s: end-to-end metric %s present=%v, defined on it=%v", w, d.name, ok, d.definedOn(w))
			}
			if ok && m.Value == nil {
				t.Errorf("%s: end-to-end metric %s is null", w, d.name)
			}
		}
		for _, d := range perLayer {
			if _, ok := have[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", w, d.name)
			}
		}
		// Every arm runs on every workload, so none of them may be null.
		for _, name := range []string{"deque.push_pop_ns", "satin.grid_start_ms", "transport.tcp_rtt_us",
			"registry.join_ms", "coord.flat_tick_us", "vtime.events_per_s", "store.readlog_ms"} {
			if have[name].Value == nil {
				t.Errorf("%s: arm metric %s is null", w, name)
			}
		}
		for _, d := range gated() {
			if v := r.get(d.name); !v.ok || v.v <= 0 {
				t.Errorf("%s: gated metric %s = %v, want a positive number", w, d.name, v)
			}
		}
		if _, err := os.Stat(filepath.Join(resultsDir, w+".trace.json")); err != nil {
			t.Errorf("%s: no trace written: %v", w, err)
		}
	}
}

// TestWrongExpectationIsAFailure is the negative test: an op checked
// against a deliberately wrong value counts in failed_share and
// contributes no latency.
func TestWrongExpectationIsAFailure(t *testing.T) {
	inTempDir(t)
	for _, w := range workloadNames {
		cfg := smokeConfig(w)
		cfg.trace, cfg.wrong = false, true
		r, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed == 0 || r.Failed == r.Attempted {
			t.Fatalf("%s: %d of %d ops failed, want every second one", w, r.Failed, r.Attempted)
		}
		if share := r.get("failed_share"); !share.ok || share.v != float64(r.Failed)/float64(r.Attempted) {
			t.Errorf("%s: failed_share = %v with %d of %d failed", w, share, r.Failed, r.Attempted)
		}
		for _, m := range r.Metrics {
			if m.Name == "op_p50_ms" && m.N != r.Attempted-r.Failed {
				t.Errorf("%s: op_p50_ms rests on %d samples, want the %d correct ops", w, m.N, r.Attempted-r.Failed)
			}
		}
		if line := contractLine(r); line.Correct || line.Failed != r.Failed {
			t.Errorf("%s: result line %+v hides the failures", w, line)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue: the same
// workloads, the contract's end-to-end metrics with the catalogue's
// units, directions and bounds, and every other metric as per-layer.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	better := func(d def) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.EndToEnd) != len(gated()) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(gated()))
	}
	for i, m := range doc.EndToEnd {
		d := gated()[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.gate || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
	want := contractLine(&report{Traced: true}).Metrics
	if len(doc.PerLayer) != len(want) {
		t.Errorf("%d per-layer metrics, want %d", len(doc.PerLayer), len(want))
	}
	for _, m := range doc.PerLayer {
		if w, ok := want[m.Name]; !ok || w.Unit != m.Unit || m.Better != better(catalogue[m.Name]) {
			t.Errorf("per_layer %+v does not match the catalogue", m)
		}
	}
}

// TestContractLine checks the last line's shape: exactly the listed
// metrics, every value a number.
func TestContractLine(t *testing.T) {
	r := &report{Workload: wSpawnTree, Attempted: 3, index: map[string]int{}}
	r.set("setup_s", 0.5, 5)
	r.put(metric{Name: "op_p50_ms"}) // null
	line := contractLine(r)
	if len(line.Metrics) != len(gated()) || !line.Correct || line.Attempted != 3 {
		t.Fatalf("line = %+v", line)
	}
	if line.Metrics["setup_s"] != (lineMetric{0.5, "s"}) || line.Metrics["op_p50_ms"] != (lineMetric{0, "ms"}) {
		t.Errorf("metrics = %+v", line.Metrics)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line has keys %v (%v)", keys, err)
	}
}

func writeDoc(t *testing.T, name string, reports ...*report) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range reports {
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runsWith(workload, name string, vals ...float64) []*report {
	var out []*report
	for _, v := range vals {
		r := &report{Workload: workload, index: map[string]int{}}
		r.set(name, v, 1)
		out = append(out, r)
	}
	return out
}

func TestCompare(t *testing.T) {
	base := runsWith(wSpawnTree, "op_p50_ms", 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		b    []*report
		word string
		code int
	}{
		{"same", runsWith(wSpawnTree, "op_p50_ms", 101, 102, 100, 101), "same", 0},
		{"better", runsWith(wSpawnTree, "op_p50_ms", 80, 81, 79, 80), "better", 0},
		{"worse", runsWith(wSpawnTree, "op_p50_ms", 140, 141, 139, 140), "worse", 1},
		{"unresolved", runsWith(wSpawnTree, "op_p50_ms", 70, 150, 100, 145), "unresolved", 0},
		{"worse beyond a wide spread", runsWith(wSpawnTree, "op_p50_ms", 170, 250, 200, 245), "worse", 1},
	} {
		var out bytes.Buffer
		code := compareMain([]string{writeDoc(t, "a.json", base...), writeDoc(t, "b.json", tc.b...)}, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.word) {
			t.Errorf("%s: exit %d, output\n%s", tc.name, code, out.String())
		}
	}
	// A traced run never feeds an end-to-end comparison.
	traced := runsWith(wSpawnTree, "op_p50_ms", 500)
	traced[0].Traced = true
	var out bytes.Buffer
	if code := compareMain([]string{writeDoc(t, "a.json", base...), writeDoc(t, "b.json", append(traced, base...)...)}, &out); code != 0 {
		t.Errorf("traced run was compared: exit %d\n%s", code, out.String())
	}
	// adapt_gain_pct is a function of the seed: another seed is no
	// regression, the same seed a point lower is.
	gain := func(seed int64, v float64) string {
		r := runsWith(wDESPaper, "adapt_gain_pct", v)[0]
		r.Seed = seed
		return writeDoc(t, "gain.json", r)
	}
	out.Reset()
	if code := compareMain([]string{gain(1, 23.3), gain(2, 21.0)}, &out); code != 0 || strings.Contains(out.String(), "adapt_gain_pct") {
		t.Errorf("adapt_gain_pct compared across seeds: exit %d\n%s", code, out.String())
	}
	if code := compareMain([]string{gain(1, 23.3), gain(1, 22.3)}, &out); code != 1 {
		t.Errorf("adapt_gain_pct a point lower at the same seed: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareMain([]string{"missing.json", "missing.json"}, &out); code != 2 {
		t.Errorf("unreadable documents: exit %d, want 2", code)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// TestAbsentCountersReadNull: a counter or histogram the program does
// not expose must read as absent, not as zero, and never fail.
func TestAbsentCountersReadNull(t *testing.T) {
	from := snapshot{counters: map[string]uint64{"a/x": 1}}
	to := snapshot{
		counters: map[string]uint64{"a/x": 4, "a/y": 2},
		hists: map[string]obs.HistView{
			"h": {Bounds: []float64{1, 2, 4}, Counts: []uint64{0, 10, 0, 0}, Count: 10},
		},
	}
	d := delta{from, to}
	if v := d.counter("a/x"); v != some(3) {
		t.Errorf("counter delta = %v", v)
	}
	if v := d.prefix("a/"); v != some(5) {
		t.Errorf("prefix delta = %v", v)
	}
	if d.counter("gone").ok || d.prefix("gone/").ok || d.histP50("gone").ok {
		t.Error("an absent instrument read as present")
	}
	if v := d.histP50("h"); !v.ok || v.v != 1.5 {
		t.Errorf("histogram median = %v, want 1.5", v)
	}
	r := &report{Workload: wDESPaper, index: map[string]int{}}
	r.setOpt("pool.granted", d.counter("gone"))
	if r.Metrics[0].Value != nil || !strings.Contains(r.table(), "null") {
		t.Errorf("absent counter printed as %v", r.Metrics[0].Value)
	}
}

func TestJobPhases(t *testing.T) {
	state := func(to string) map[string]any { return map[string]any{"to": to} }
	events := []record.Event{
		{Time: 1.000, Kind: "job-submitted", Job: "job-001"},
		{Time: 1.001, Kind: "job-state", Job: "job-001", Data: state("provisioning")},
		{Time: 1.011, Kind: "job-state", Job: "job-001", Data: state("running")},
		{Time: 1.014, Kind: "job-state", Job: "job-001", Data: state("done")},
		// The ring dropped job-002's early rows: it must not count.
		{Time: 1.020, Kind: "job-state", Job: "job-002", Data: state("done")},
	}
	got := readJobPhases(events)
	ph, ok := got["job-001"]
	if len(got) != 1 || !ok {
		t.Fatalf("phases = %v", got)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
	if !near(ph.queued, 1) || !near(ph.provisioning, 10) || !near(ph.running, 3) {
		t.Errorf("job-001 phases = %+v", ph)
	}
}
