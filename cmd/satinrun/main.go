// Command satinrun executes a divide-and-conquer application on the
// real satin runtime: an emulated multi-cluster grid of worker nodes
// with cluster-aware random work stealing, optionally watched by the
// adaptation coordinator, optionally with a throttled cluster link or
// a competing CPU load — the paper's system end to end, in one
// process.
//
// It is a thin client of the job layer: one job submitted to an
// in-process manager, live iteration printing, wait, exit. The same
// layer served long-lived over the wire is cmd/satind.
//
// Examples:
//
//	satinrun -app fib -size 26 -clusters 2 -nodes 4
//	satinrun -app nqueens -size 10 -clusters 3 -nodes 2
//	satinrun -app barneshut -size 2000 -iters 5
//	satinrun -app fib -adapt -iters 30 -shape fs1=5000
//	satinrun -class stream -rate 20 -items 200 -target 1 -adapt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/sigdrain"
	"repro/internal/trace"
	"repro/satin"
)

func main() {
	var (
		jf = cli.AddJobFlags(flag.CommandLine, "problem size (fib N, queens N, tsp cities, bodies)",
			"repetitions (iterative application)", "monitoring period", 500*time.Millisecond)
		clusters = flag.Int("clusters", 2, "number of emulated clusters")
		nodes    = flag.Int("nodes", 4, "nodes per cluster")
		verbose  = flag.Bool("v", false, "print per-node statistics")
		wireObs  = flag.Bool("wire-stats", false, "print the wire-layer frame/byte/error counters")
		observe  = cli.ObserveFlags(flag.CommandLine, "satinrun",
			"serve /metrics (Prometheus), /events (JSONL) and /debug/pprof on this address (e.g. :9090; :0 picks a port)",
			"append the run's events/samples/decisions to this durable record store (replay with cmd/replay)")
	)
	flag.Parse()
	if err := observe.Start(4096); err != nil {
		log.Fatalf("satinrun: %v", err)
	}
	defer observe.Close()
	rec := observe.Rec
	if *clusters < 1 || *nodes < 1 || *jf.Iters < 1 {
		fmt.Fprintln(os.Stderr, "satinrun: -clusters, -nodes and -iters must be >= 1")
		os.Exit(2)
	}

	// Each cluster has room for the coordinator to grow to twice the
	// start; the start is -nodes in every one of them, stated as the
	// job's layout (left to the pool, that many nodes fit in fs0).
	var specs, layout []satin.ClusterSpec
	for i := 0; i < *clusters; i++ {
		name := satin.ClusterID(fmt.Sprintf("fs%d", i))
		specs = append(specs, satin.ClusterSpec{Name: name, Nodes: *nodes * 2})
		layout = append(layout, satin.ClusterSpec{Name: name, Nodes: *nodes})
	}
	// -class/-stages and -shape/-load are validated against the
	// deployment before anything starts.
	jobSpec, err := jf.Spec(specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "satinrun: %v\n", err)
		os.Exit(2)
	}

	m, err := job.NewManager(job.Config{
		Clusters: specs,
		Period:   jobSpec.Period,
		Recorder: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		rec.Record("run", map[string]any{
			"app": jobSpec.App, "size": jobSpec.Size, "clusters": *clusters,
			"nodes": *nodes, "iters": jobSpec.Iters, "adapt": jobSpec.Adapt,
		})
	}
	if jobSpec.Class == "stream" {
		fmt.Printf("stream of %d items at %.1f/s (%d stages, SLO %.1fs) on %d nodes in %d clusters\n",
			*jf.Items, *jf.Rate, len(jobSpec.Stream.Stages), *jf.Target, *clusters**nodes, *clusters)
	} else {
		fmt.Printf("%s(size %d) on %d nodes in %d clusters, %d iteration(s)\n",
			jobSpec.App, jobSpec.Size, *clusters**nodes, *clusters, jobSpec.Iters)
	}
	for c, v := range jobSpec.Shape {
		fmt.Printf("throttled %s WAN link to %.0f B/s\n", c, v)
	}
	for c, v := range jobSpec.Load {
		fmt.Printf("competing load %.1fx on %s\n", v, c)
	}

	label := "iteration"
	if jobSpec.Class == "stream" {
		label = "window" // a streaming job's unit of progress; seconds is its mean latency
	}
	total := time.Duration(0)
	count := 0
	j, err := m.SubmitJob(jobSpec, job.Hooks{
		Layout: layout,
		OnIteration: func(i int, seconds float64, nodes int) {
			el := time.Duration(seconds * float64(time.Second))
			total += el
			count++
			fmt.Printf("  %s %2d: %8v (%2d nodes)\n",
				label, i, el.Round(time.Millisecond), nodes)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// First SIGINT/SIGTERM cancels the job and flushes; a second one
	// force-quits.
	release := sigdrain.Install("satinrun", func() int {
		j.Cancel()
		m.Drain(10 * time.Second)
		_ = observe.Flush() // the deferred Close won't run on the os.Exit path
		return 130
	})
	<-j.Done()
	// A drain cancels the job, which closes Done: release returns only
	// if no drain began, so from here on the exit is main's alone.
	release()

	res := j.Result()
	switch j.State() {
	case job.Done:
		if res.Check != "" && res.Check != "ok" {
			fmt.Println(res.Check)
		} else if res.Check == "ok" {
			fmt.Println("result ok")
		}
	default:
		log.Fatalf("satinrun: job %s: %s", j.State(), res.Err)
	}
	if jobSpec.Class == "stream" {
		fmt.Printf("%d items in %d windows, mean latency %.3fs, max %.3fs\n",
			res.StreamCompleted, count, res.StreamMeanLatency, res.StreamMaxLatency)
	} else {
		fmt.Printf("total: %v, mean %v/iteration\n",
			total.Round(time.Millisecond), (total / time.Duration(jobSpec.Iters)).Round(time.Millisecond))
	}

	if *verbose {
		reports := res.NodeReports
		sort.Slice(reports, func(i, k int) bool { return reports[i].Node < reports[k].Node })
		fmt.Println("per-node statistics:")
		for _, rep := range reports {
			speed := "-" // never benchmarked: only adaptive jobs measure speed
			if rep.Speed > 0 {
				speed = fmt.Sprintf("%.0f", rep.Speed)
			}
			fmt.Printf("  %-10s busy=%.2fs intra=%.2fs inter=%.2fs bench=%.2fs speed=%s\n",
				rep.Node, rep.BusySec, rep.IntraSec, rep.InterSec, rep.BenchSec, speed)
		}
	}
	if jobSpec.Adapt {
		// The same unified period log the simulator prints (both are
		// the shared kernel's coord.PeriodRecord).
		fmt.Println("coordinator period log:")
		trace.WritePeriods(os.Stdout, res.History)
		if len(res.Annotations) > 0 {
			fmt.Println("adaptation timeline:")
			trace.WriteAnnotations(os.Stdout, res.Annotations)
		}
		fmt.Printf("learned: %s\n", res.Learned)
	}
	if *wireObs {
		fmt.Println("wire-layer counters:")
		obs.Default.WriteText(os.Stdout)
	}
	m.Close()
}
