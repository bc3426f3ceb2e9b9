package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// The five workloads. Later performance and simplicity PRs are judged
// on these names; README.md records why each exists.
const (
	wSpawnTree   = "spawn_tree"
	wGridSteal   = "grid_steal"
	wServiceJobs = "service_jobs"
	wDESPaper    = "des_paper"
	wDESScale    = "des_scale"
)

var workloadNames = []string{wSpawnTree, wGridSteal, wServiceJobs, wDESPaper, wDESScale}

// def declares one metric: its unit, and for an end-to-end metric the
// direction, the regression bound -compare holds it to (a share of the
// baseline median, except adaptGainPoints) and the workloads it is
// defined on.
type def struct {
	name    string
	unit    string
	higher  bool               // larger is better
	bound   float64            // end-to-end: allowed worsening, share of the median
	boundOn map[string]float64 // end-to-end: workloads with a bound of their own
	on      []string           // end-to-end: workloads that report it (nil = all)
	// gate is the bound BENCHMARK.json lists the metric with; 0 keeps it
	// out of the contract's end-to-end list. BENCHMARK.json holds one
	// number per metric for all five workloads, so a gate has to be three
	// times the spread of the noisiest of them.
	gate float64
}

// boundFor is the regression bound on one workload.
func (d def) boundFor(workload string) float64 {
	if b, ok := d.boundOn[workload]; ok {
		return b
	}
	return d.bound
}

// adapt_gain_pct is deterministic per seed; its bound is absolute.
const adaptGainPoints = 0.5

var (
	grids = []string{wSpawnTree, wGridSteal}
	svc   = []string{wServiceJobs}
)

// endToEnd is what a user of the system sees, in ISSUE 12's order and
// with ISSUE 12's bounds. The gated ones are defined on every workload
// and never zero. Ten runs of one commit spread by 0.5-5 % on op latency
// and throughput (README.md has the table), which the 10-15 % bounds
// resolve. The gates are wider because the single-threaded, memory-bound
// DES workloads were also seen to spread by 18 % while something outside
// the shared 2-core VM contended for memory; -compare answers
// "unresolved" in such an episode, not "same".
var endToEnd = []def{
	{name: "setup_s", unit: "s", bound: 0.25, gate: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10, gate: 0.25},
	{name: "op_p50_ms", unit: "ms", bound: 0.10, gate: 0.25},
	// A p90 needs ten samples beyond it: the DES workloads run 4-6 ops and
	// the service's two classes have percentiles of their own.
	{name: "op_p90_ms", unit: "ms", bound: 0.15, on: grids},
	{name: "scaling_efficiency", unit: "ratio", higher: true, bound: 0.10, on: grids},
	{name: "job_short_p50_ms", unit: "ms", bound: 0.10, on: svc},
	{name: "job_short_p95_ms", unit: "ms", bound: 0.15, on: svc},
	{name: "job_adaptive_p50_ms", unit: "ms", bound: 0.15, on: svc},
	{name: "job_adaptive_p90_ms", unit: "ms", bound: 0.20, on: svc},
	{name: "failed_share", unit: "ratio", bound: 0},
	// Not gated, as ISSUE 12 provides for: its spread misses a tenth on
	// grid_steal (10.5 %, idle nodes spinning on steals).
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.15, boundOn: map[string]float64{wServiceJobs: 0.20}},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15, gate: 0.20},
	{name: "adapt_gain_pct", unit: "%", higher: true, bound: adaptGainPoints, on: []string{wDESPaper}},
}

// gated are the end-to-end metrics BENCHMARK.json lists, in order.
func gated() []def {
	var out []def
	for _, d := range endToEnd {
		if d.gate > 0 {
			out = append(out, d)
		}
	}
	return out
}

// perLayer lists the per-layer metrics: arms (the harness calls a
// layer's public functions directly), counts (deltas of what the
// program already exposes), spans and the attribution shares.
var perLayer = []def{
	{name: "deque.push_pop_ns", unit: "ns"},
	{name: "deque.steal_ns", unit: "ns"},

	{name: "satin.spawn_sync_us", unit: "us"},
	{name: "satin.grid_start_ms", unit: "ms"},
	{name: "satin.grid_close_ms", unit: "ms"},
	{name: "satin.busy_share", higher: true, unit: "ratio"},
	{name: "satin.idle_share", unit: "ratio"},
	{name: "satin.intra_share", unit: "ratio"},
	{name: "satin.inter_share", unit: "ratio"},
	{name: "satin.steal_rtt_local_p50_us", unit: "us"},
	{name: "satin.steal_rtt_wan_p50_ms", unit: "ms"},

	{name: "steal.nextview_16_ns", unit: "ns"},
	{name: "steal.nextview_2000_ns", unit: "ns"},
	{name: "steal.attempts_per_op", unit: "count"},
	{name: "steal.wan_attempts_per_op", unit: "count"},
	{name: "steal.hit_ratio", higher: true, unit: "ratio"},

	{name: "wirefmt.summary_encode_ns", unit: "ns"},
	{name: "wirefmt.summary_decode_ns", unit: "ns"},
	{name: "wirefmt.request_encode_ns", unit: "ns"},
	{name: "wirefmt.request_decode_ns", unit: "ns"},

	{name: "wire.roundtrip_inproc_us", unit: "us"},
	{name: "wire.roundtrip_batched_us", unit: "us"},
	{name: "wire.frames_per_op", unit: "count"},
	{name: "wire.bytes_per_op", unit: "B"},
	{name: "wire.errors", unit: "count"},

	{name: "transport.inproc_rtt_us", unit: "us"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.tcp_mb_s", higher: true, unit: "MB/s"},

	{name: "registry.join_ms", unit: "ms"},

	{name: "pool.acquire_release_us", unit: "us"},
	{name: "pool.arbitrate_100_us", unit: "us"},
	{name: "pool.granted", higher: true, unit: "count"},
	{name: "pool.denied_share", unit: "ratio"},

	{name: "job.submit_rtt_ms", unit: "ms"},
	{name: "job.result_wait_ms", unit: "ms"},
	{name: "job.queued_ms", unit: "ms"},
	{name: "job.provisioning_ms", unit: "ms"},
	{name: "job.running_ms", unit: "ms"},

	{name: "adapt.ticks_per_job", unit: "count"},
	{name: "adapt.nodes_added", unit: "count"},
	{name: "adapt.nodes_removed", unit: "count"},
	{name: "adapt.report_failures", unit: "count"},

	{name: "core.wae_ns", unit: "ns"},
	{name: "core.rank_us", unit: "us"},

	{name: "coord.flat_tick_us", unit: "us"},
	{name: "coord.root_tick_us", unit: "us"},
	{name: "coord.sub_summarize_us", unit: "us"},
	{name: "coord.ticks", unit: "count"},

	{name: "vtime.events_per_s", higher: true, unit: "1/s"},

	{name: "des.sharded_2k_s", unit: "s"},
	{name: "des.flat_1k_s", unit: "s"},
	{name: "des.paper_slowest_ms", unit: "ms"},
	{name: "des.virtual_s_per_wall_s", higher: true, unit: "ratio"},
	{name: "des.periods_per_s", higher: true, unit: "1/s"},
	{name: "expt.overhead_pct", unit: "%"},

	{name: "record.sample_us", unit: "us"},
	{name: "store.put_ns", unit: "ns"},
	{name: "store.close_flush_ms", unit: "ms"},
	{name: "store.readlog_ms", unit: "ms"},
	{name: "obs.counter_inc_ns", unit: "ns"},
	{name: "obs.snapshot_us", unit: "us"},
	{name: "store.rows_per_job", unit: "count"},
	{name: "store.bytes_per_job", unit: "B"},
	{name: "store.dropped_share", unit: "ratio"},

	{name: "runtime.allocs_per_op", unit: "count"},
	{name: "runtime.alloc_kb_per_op", unit: "KB"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.goroutines_end", unit: "count"},
	{name: "trace.overhead_pct", unit: "%"},

	{name: "attrib.spawn_share", unit: "ratio"},
	{name: "attrib.steal_share", unit: "ratio"},
	{name: "attrib.wire_share", unit: "ratio"},
	{name: "attrib.transport_share", unit: "ratio"},
	{name: "attrib.lifecycle_share", unit: "ratio"},
	{name: "attrib.coord_share", unit: "ratio"},
	{name: "attrib.vtime_share", unit: "ratio"},
	{name: "attrib.unexplained_share", unit: "ratio"},
}

// allDefs is every metric, end-to-end first: the order of the table.
func allDefs() []def { return append(append([]def(nil), endToEnd...), perLayer...) }

var catalogue = func() map[string]def {
	m := make(map[string]def, len(endToEnd)+len(perLayer))
	for _, d := range allDefs() {
		m[d.name] = d
	}
	return m
}()

func (d def) definedOn(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// metric is one reported number. A nil Value prints as null: the
// source (a counter, a histogram, a sample) was absent, which is a
// different statement from a measured zero.
type metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value *float64 `json:"value"`
	N     int      `json:"n,omitempty"`   // samples behind the value
	Min   *float64 `json:"min,omitempty"` // arms: fastest repetition
	MAD   *float64 `json:"mad,omitempty"` // arms: median absolute deviation
}

// env stamps a report with what it ran on.
type env struct {
	Commit     string `json:"commit,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnv() env {
	return env{
		Commit:     os.Getenv("BENCH_COMMIT"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// report is one run of one workload: what run.sh stores per workload
// and -compare reads back.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Env       env      `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`

	index map[string]int
	// tasksPerOp is how many satin tasks one op runs, where the harness
	// knows it (the Fib workloads); attribution's spawn count.
	tasksPerOp float64
}

func newReport(cfg runConfig) *report {
	return &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Traced: cfg.trace, Env: readEnv(), index: make(map[string]int),
	}
}

// put stores a metric; an undeclared name is a harness bug.
func (r *report) put(m metric) {
	d, ok := catalogue[m.Name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalogue", m.Name))
	}
	m.Unit = d.unit
	if m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)) {
		m.Value = nil
	}
	if i, ok := r.index[m.Name]; ok {
		r.Metrics[i] = m
		return
	}
	r.index[m.Name] = len(r.Metrics)
	r.Metrics = append(r.Metrics, m)
}

func (r *report) set(name string, v float64, n int) {
	r.put(metric{Name: name, Value: &v, N: n})
}

// setOpt stores a counter read that may be absent.
func (r *report) setOpt(name string, v opt) {
	if !v.ok {
		r.put(metric{Name: name})
		return
	}
	r.set(name, v.v, 0)
}

// setArm stores an arm's repetitions as median, min and MAD.
func (r *report) setArm(name string, reps []float64) {
	med, dev := median(reps), mad(reps)
	lo := sortedCopy(reps)[0]
	r.put(metric{Name: name, Value: &med, N: len(reps), Min: &lo, MAD: &dev})
}

// get returns a metric's value, absent when unset or null.
func (r *report) get(name string) opt {
	if r.index == nil {
		r.index = make(map[string]int, len(r.Metrics))
		for i, m := range r.Metrics {
			r.index[m.Name] = i
		}
	}
	i, ok := r.index[name]
	if !ok || r.Metrics[i].Value == nil {
		return opt{}
	}
	return some(*r.Metrics[i].Value)
}

// fillNull declares every metric the run should carry but did not
// measure, so a reader sees null instead of a hole.
func (r *report) fillNull() {
	for _, d := range endToEnd {
		if _, ok := r.index[d.name]; !ok && d.definedOn(r.Workload) {
			r.put(metric{Name: d.name})
		}
	}
	if !r.Traced {
		return
	}
	for _, d := range perLayer {
		if _, ok := r.index[d.name]; !ok {
			r.put(metric{Name: d.name})
		}
	}
}

// table renders every metric by name with its unit.
func (r *report) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  %.0fs  traced=%v  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed)
	var ms []metric
	for _, d := range allDefs() {
		if i, ok := r.index[d.name]; ok {
			ms = append(ms, r.Metrics[i])
		}
	}
	for _, m := range ms {
		val := "null"
		if m.Value != nil {
			val = fmt.Sprintf("%.6g", *m.Value)
		}
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Min != nil {
			extra += fmt.Sprintf("  min=%.6g mad=%.3g", *m.Min, *m.MAD)
		}
		fmt.Fprintf(&b, "  %-32s %14s %-6s%s\n", m.Name, val, m.Unit, extra)
	}
	return b.String()
}
