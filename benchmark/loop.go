package main

import (
	"sort"
	"sync"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every input so the whole run takes about a second:
	// it proves the harness works, its numbers mean nothing.
	smoke bool
	// wrong makes every second op expect a deliberately wrong result;
	// the negative test for the correctness checks.
	wrong bool
}

// expectWrong reports whether op i should be checked against a wrong
// expectation.
func (c runConfig) expectWrong(i int) bool { return c.wrong && i%2 == 1 }

// armReps is how often each per-layer arm repeats.
func (c runConfig) armReps() int {
	if c.smoke {
		return 1
	}
	return 7
}

// setupReps is how often a workload's set-up repeats for setup_s.
func (c runConfig) setupReps() int {
	if c.smoke {
		return 1
	}
	return 7
}

// opFunc runs and verifies one closed-loop operation. i counts the
// driver's ops; class labels the latency sample. A failed op
// contributes no latency.
type opFunc func(driver, i int, ot opTrace) (class string, ok bool)

type sample struct {
	class  string
	ms     float64
	traced bool
}

// phase is what one timed phase measured.
type phase struct {
	samples   []sample
	attempted int
	failed    int
	before    usage
	after     usage
	reg       delta
}

// timedPhase runs op in a closed loop on each of drivers goroutines
// until d has passed, each op under an "op" span of its own. In a traced
// run every second op runs untraced, so the same phase yields the
// tracing overhead; for that, and for the negative test, every driver
// completes at least two ops.
func timedPhase(d time.Duration, drivers int, tr *tracer, op opFunc) *phase {
	type tally struct {
		samples           []sample
		attempted, failed int
	}
	tallies := make([]tally, drivers)
	p := &phase{}
	p.reg.from = readRegistry()
	tr.mark("timed.start", p.reg.from)
	p.before = readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for drv := 0; drv < drivers; drv++ {
		wg.Add(1)
		go func(drv int) {
			defer wg.Done()
			t := &tallies[drv]
			for i := 0; i < 2 || time.Since(start) < d; i++ {
				ot := opTrace{tr: tr, op: drv*1_000_000 + i + 1}
				if i%2 == 1 {
					ot.tr = nil
				}
				t0 := time.Now()
				ot.parent = ot.tr.begin("op", ot.op, 0)
				class, ok := op(drv, i, ot)
				ot.tr.end(ot.parent)
				el := time.Since(t0)
				t.attempted++
				if !ok {
					t.failed++
					continue
				}
				t.samples = append(t.samples, sample{class, ms(el), ot.tr != nil})
			}
		}(drv)
	}
	wg.Wait()
	p.after = readUsage()
	p.reg.to = readRegistry()
	tr.mark("timed.end", p.reg.to)
	for _, t := range tallies {
		p.samples = append(p.samples, t.samples...)
		p.attempted += t.attempted
		p.failed += t.failed
	}
	return p
}

// lat returns the ascending latencies (ms) of one class ("" = all).
func (p *phase) lat(class string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if class == "" || s.class == class {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phase) wall() time.Duration { return p.after.wall.Sub(p.before.wall) }

// overheadPct compares the traced and untraced ops of one class.
func (p *phase) overheadPct(class string) opt {
	var traced, plain []float64
	for _, s := range p.samples {
		if class != "" && s.class != class {
			continue
		}
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			plain = append(plain, s.ms)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return opt{}
	}
	return some((median(traced)/median(plain) - 1) * 100)
}

// reportCommon fills the end-to-end metrics every workload shares and,
// when tracing, the process-level per-layer ones.
func reportCommon(r *report, cfg runConfig, p *phase, setup []float64, class string) {
	r.Attempted, r.Failed = p.attempted, p.failed
	correct := len(p.samples)
	r.set("setup_s", median(setup), len(setup))
	r.set("failed_share", float64(p.failed)/float64(p.attempted), p.attempted)
	r.set("peak_rss_mb", peakRSSMB(), 0)
	if correct == 0 {
		return
	}
	n := float64(correct)
	lat := p.lat("")
	r.set("ops_per_s", n/p.wall().Seconds(), correct)
	r.set("op_p50_ms", median(lat), len(lat))
	if catalogue["op_p90_ms"].definedOn(r.Workload) {
		r.set("op_p90_ms", percentile(lat, 90), len(lat))
	}
	r.set("cpu_ms_per_op", ms(p.after.cpu-p.before.cpu)/n, correct)
	if !cfg.trace {
		return
	}
	r.set("runtime.allocs_per_op", float64(p.after.mallocs-p.before.mallocs)/n, correct)
	r.set("runtime.alloc_kb_per_op", float64(p.after.allocated-p.before.allocated)/1024/n, correct)
	r.set("runtime.gc_pause_ms", ms(p.after.gcPause-p.before.gcPause), 0)
	r.setOpt("trace.overhead_pct", p.overheadPct(class))
}
