package main

// Every read of a number the program under test exposes goes through
// this file. A counter, histogram or event that is absent reads as
// "absent" (printed null), never as 0 and never as an error: when a
// later PR moves instruments off obs.Default, the per-layer numbers
// degrade visibly instead of silently.

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/satin"
)

// opt is a number that may be absent.
type opt struct {
	v  float64
	ok bool
}

func some(v float64) opt { return opt{v, true} }

// per divides by a positive count, keeping absence.
func (o opt) per(n float64) opt {
	if !o.ok || n <= 0 {
		return opt{}
	}
	return some(o.v / n)
}

func (o opt) times(f float64) opt {
	if !o.ok {
		return opt{}
	}
	return some(o.v * f)
}

// or0 is for arithmetic over several reads where a missing term
// contributes nothing (attribution); never for a reported metric.
func (o opt) or0() float64 { return o.v }

// snapshot is one reading of the process-global registry.
type snapshot struct {
	counters map[string]uint64
	hists    map[string]obs.HistView
}

func readRegistry() snapshot {
	return snapshot{counters: obs.Default.Snapshot(), hists: obs.Default.Histograms()}
}

// delta is what happened between two snapshots.
type delta struct{ from, to snapshot }

// counter is the increase of one named counter.
func (d delta) counter(name string) opt {
	to, ok := d.to.counters[name]
	if !ok {
		return opt{}
	}
	return some(float64(to - d.from.counters[name]))
}

// prefix sums the increase of every counter under a name prefix
// ("wire/frames_out/"); absent when no counter carries the prefix.
func (d delta) prefix(prefix string) opt {
	var sum float64
	found := false
	for name, to := range d.to.counters {
		if strings.HasPrefix(name, prefix) {
			found = true
			sum += float64(to - d.from.counters[name])
		}
	}
	if !found {
		return opt{}
	}
	return some(sum)
}

// sum adds reads; absent when every one of them is.
func sum(vs ...opt) opt {
	var out opt
	for _, v := range vs {
		if v.ok {
			out.ok = true
			out.v += v.v
		}
	}
	return out
}

// histP50 estimates the median of the observations a histogram took
// between the snapshots, interpolating inside the median's bucket;
// absent when the histogram is missing or saw nothing.
func (d delta) histP50(name string) opt {
	to, ok := d.to.hists[name]
	if !ok {
		return opt{}
	}
	from := d.from.hists[name]
	counts := make([]float64, len(to.Counts))
	var total float64
	for i, c := range to.Counts {
		counts[i] = float64(c)
		if i < len(from.Counts) {
			counts[i] -= float64(from.Counts[i])
		}
		total += counts[i]
	}
	if total == 0 {
		return opt{}
	}
	target, seen := total/2, 0.0
	for i, c := range counts {
		if seen+c < target || c == 0 {
			seen += c
			continue
		}
		if i >= len(to.Bounds) { // the +Inf bucket has no upper bound
			return some(to.Bounds[len(to.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = to.Bounds[i-1]
		}
		return some(lo + (to.Bounds[i]-lo)*(target-seen)/c)
	}
	return opt{}
}

// nodeCounts is the time (seconds, summed over nodes) a set of live
// nodes accounted to each bucket over a phase.
type nodeCounts struct {
	busy, idle, intra, inter float64
}

// readNodes closes the nodes' current statistics period and folds it
// (Node.Report resets the period, so calling it at the start of a
// phase makes the next call cover exactly that phase).
func readNodes(nodes []*satin.Node) nodeCounts {
	var out nodeCounts
	for _, n := range nodes {
		r := n.Report()
		out.busy += r.BusySec
		out.idle += r.IdleSec + r.BenchSec
		out.intra += r.IntraSec
		out.inter += r.InterSec
	}
	return out
}

// jobPhases derives each finished job's lifecycle phase lengths (ms)
// from the recorder's job-submitted and job-state events.
type jobPhases struct {
	queued, provisioning, running float64
}

func readJobPhases(events []record.Event) map[string]jobPhases {
	type stamps struct{ submitted, provisioning, running, done float64 }
	seen := make(map[string]*stamps)
	at := func(job string) *stamps {
		s := seen[job]
		if s == nil {
			s = &stamps{submitted: -1, provisioning: -1, running: -1, done: -1}
			seen[job] = s
		}
		return s
	}
	for _, e := range events {
		switch e.Kind {
		case "job-submitted":
			at(e.Job).submitted = e.Time
		case "job-state":
			data, _ := e.Data.(map[string]any)
			switch data["to"] {
			case "provisioning":
				at(e.Job).provisioning = e.Time
			case "running":
				at(e.Job).running = e.Time
			case "done":
				at(e.Job).done = e.Time
			}
		}
	}
	out := make(map[string]jobPhases)
	for job, s := range seen {
		// The ring may have dropped a job's early rows; a job with a
		// missing stamp contributes nothing.
		if s.submitted < 0 || s.provisioning < 0 || s.running < 0 || s.done < 0 {
			continue
		}
		out[job] = jobPhases{
			queued:       (s.provisioning - s.submitted) * 1000,
			provisioning: (s.running - s.provisioning) * 1000,
			running:      (s.done - s.running) * 1000,
		}
	}
	return out
}

// countEvents counts a job's events of one kind, per job.
func countEvents(events []record.Event, kind string) map[string]int {
	out := make(map[string]int)
	for _, e := range events {
		if e.Kind == kind && e.Job != "" {
			out[e.Job]++
		}
	}
	return out
}

// medianOf is the median of a sample, absent when the sample is empty.
func medianOf(v []float64) opt {
	if len(v) == 0 {
		return opt{}
	}
	return some(median(v))
}

// reportRegistryCounts fills the per-layer counts that come from the
// process-global registry, as deltas over the timed phase. Which of
// them exist depends on which layers the workload woke up.
func reportRegistryCounts(r *report, p *phase) {
	ops := float64(len(p.samples))
	d := p.reg
	local, wide, async := d.counter("steal/sync_local_attempts"), d.counter("steal/sync_wide_attempts"), d.counter("steal/async_attempts")
	attempts := sum(local, wide, async)
	r.setOpt("steal.attempts_per_op", attempts.per(ops))
	r.setOpt("steal.wan_attempts_per_op", sum(wide, async).per(ops))
	r.setOpt("steal.hit_ratio", d.counter("steal/hits").per(attempts.v))

	r.setOpt("satin.steal_rtt_local_p50_us", d.histP50("satin/steal_rtt/local").times(1e6))
	r.setOpt("satin.steal_rtt_wan_p50_ms", d.histP50("satin/steal_rtt/wan_async").times(1e3))

	r.setOpt("wire.frames_per_op", d.prefix("wire/frames_out/").per(ops))
	r.setOpt("wire.bytes_per_op", d.prefix("wire/bytes_out/").per(ops))
	r.setOpt("wire.errors", sum(d.prefix("wire/decode_err/"), d.prefix("wire/desync/"),
		d.prefix("wire/dup/"), d.prefix("wire/stale/"), d.prefix("wire/send_err/")))

	granted, denied := d.counter("pool/granted"), d.counter("pool/denied")
	r.setOpt("pool.granted", granted)
	r.setOpt("pool.denied_share", denied.per(sum(granted, denied).v))

	r.setOpt("coord.ticks", d.counter("coord/ticks"))
	r.setOpt("adapt.nodes_added", d.counter("coord/nodes_added"))
	r.setOpt("adapt.nodes_removed", d.counter("coord/nodes_removed"))
	r.setOpt("adapt.report_failures", d.counter("satin/report_err"))
}
