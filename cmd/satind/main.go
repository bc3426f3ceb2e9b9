// Command satind is the long-lived multi-job grid service: one shared
// node pool (the emulated multi-cluster grid), a job manager running
// many computations concurrently with fair-share arbitration between
// their adaptation coordinators, and a submit/status/cancel/result
// protocol served over the TCP hub on the typed wire layer.
//
// Daemon:
//
//	satind -addr :7711 -clusters 2 -nodes 4 -obs-addr :9090
//
// Client (same binary, subcommand first):
//
//	satind submit -addr :7711 -app fib -size 24 -iters 3 -adapt
//	satind submit -addr :7711 -class stream -rate 20 -items 200 -target 1 -adapt
//	satind status -addr :7711
//	satind status -addr :7711 -id job-001
//	satind cancel -addr :7711 -id job-001
//	satind result -addr :7711 -id job-001 -wait
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/job"
	"repro/internal/sigdrain"
	"repro/internal/transport"
	"repro/satin"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "cancel", "result":
			client(os.Args[1], os.Args[2:])
			return
		}
	}
	daemon(os.Args[1:])
}

// ---- daemon mode ----

func daemon(args []string) {
	fs := flag.NewFlagSet("satind", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":7711", "TCP hub address to serve the control protocol on")
		clusters = fs.Int("clusters", 2, "number of emulated clusters")
		nodes    = fs.Int("nodes", 4, "nodes per cluster")
		maxAct   = fs.Int("max-active", 8, "maximum concurrently running jobs")
		period   = fs.Duration("period", 500*time.Millisecond, "default monitoring period")
		patience = fs.Duration("patience", 5*time.Second, "provisioning patience before a job starts undersized")
		drainTmo = fs.Duration("drain-timeout", 30*time.Second, "SIGTERM: how long to wait for running jobs")
		observe  = cli.ObserveFlags(fs, "satind",
			"serve /metrics, /events and /debug/pprof on this address (:0 picks a port)",
			"append events/samples/per-job decisions to this durable record store (replay with cmd/replay)")
		seed = fs.Int64("seed", 0, "reproducible job seeds (job n runs with seed+n)")
	)
	fs.Parse(args)
	if *clusters < 1 || *nodes < 1 {
		fmt.Fprintln(os.Stderr, "satind: -clusters and -nodes must be >= 1")
		os.Exit(2)
	}
	if err := observe.Start(4096); err != nil {
		log.Fatalf("satind: %v", err)
	}

	var specs []satin.ClusterSpec
	for i := 0; i < *clusters; i++ {
		specs = append(specs, satin.ClusterSpec{
			Name: satin.ClusterID(fmt.Sprintf("fs%d", i)), Nodes: *nodes,
		})
	}
	m, err := job.NewManager(job.Config{
		Clusters:          specs,
		MaxActive:         *maxAct,
		Period:            *period,
		ProvisionPatience: *patience,
		Recorder:          observe.Rec,
		Seed:              *seed,
	})
	if err != nil {
		log.Fatalf("satind: %v", err)
	}
	hub, err := transport.NewTCPHub(*addr)
	if err != nil {
		log.Fatalf("satind: listen: %v", err)
	}
	srv, err := job.Serve(transport.NewTCP(hub.Addr()), m)
	if err != nil {
		log.Fatalf("satind: serve: %v", err)
	}

	release := sigdrain.Install("satind", func() int {
		cancelled := m.Drain(*drainTmo)
		m.Close()
		srv.Close()
		hub.Close()
		if err := observe.Flush(); err != nil {
			log.Printf("satind: record store close: %v", err)
		}
		if cancelled > 0 {
			log.Printf("satind: drained, %d job(s) cancelled", cancelled)
		}
		return 0
	})
	defer release()

	fmt.Printf("satind serving on %s: %d clusters x %d nodes (%d processors), max %d active jobs\n",
		hub.Addr(), *clusters, *nodes, m.Capacity(), *maxAct)
	select {} // work happens on manager and fabric goroutines
}

// ---- client mode ----

func client(cmd string, args []string) {
	fs := flag.NewFlagSet("satind "+cmd, flag.ExitOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:7711", "daemon's hub address")
		tmo  = fs.Duration("timeout", 10*time.Second, "reply timeout")
		id   = fs.String("id", "", "job ID")
		// submit flags
		jf       = cli.AddJobFlags(fs, "problem size", "repetitions", "monitoring period override", 0)
		minNodes = fs.Int("min-nodes", 1, "provisioning target before the run starts")
		maxNodes = fs.Int("max-nodes", 0, "allocation cap (0 = none)")
		weight   = fs.Float64("weight", 1, "fair-share weight in the pool")
		wait     = fs.Bool("wait", false, "result: block until the job finishes")
	)
	fs.Parse(args)

	ctl, err := job.Dial(transport.NewTCP(*addr),
		fmt.Sprintf("satinctl-%d", os.Getpid()))
	if err != nil {
		log.Fatalf("satind %s: %v", cmd, err)
	}
	defer ctl.Close()

	switch cmd {
	case "submit":
		// Flag grammar is checked here (exit 2); cluster names in
		// -shape/-load are the daemon's to check, it knows the deployment.
		spec, err := jf.Spec(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "satind submit: %v\n", err)
			os.Exit(2)
		}
		spec.MinNodes, spec.MaxNodes, spec.Weight = *minNodes, *maxNodes, *weight
		jid, err := ctl.Submit(spec, *tmo)
		if errors.Is(err, job.ErrRejected) {
			fmt.Fprintf(os.Stderr, "satind submit: %v\n", err)
			os.Exit(2)
		}
		if err != nil {
			log.Fatalf("satind submit: %v", err)
		}
		fmt.Println(jid)
	case "status":
		jobs, err := ctl.Status(*id, *tmo)
		if err != nil {
			log.Fatalf("satind status: %v", err)
		}
		fmt.Printf("%-10s %-10s %6s %6s %6s %6s %9s  %s\n",
			"ID", "APP", "SIZE", "STATE", "NODES", "DONE", "SECONDS", "ERR")
		for _, s := range jobs {
			name := s.App
			if s.Class == "stream" {
				name = "stream"
			}
			fmt.Printf("%-10s %-10s %6d %6s %6d %6d %9.2f  %s\n",
				s.ID, name, s.Size, s.State, s.Nodes, s.Done, s.Seconds, s.Err)
		}
	case "cancel":
		if *id == "" {
			fmt.Fprintln(os.Stderr, "satind cancel: -id required")
			os.Exit(2)
		}
		if err := ctl.Cancel(*id, *tmo); err != nil {
			log.Fatalf("satind cancel: %v", err)
		}
		fmt.Printf("%s cancelled\n", *id)
	case "result":
		if *id == "" {
			fmt.Fprintln(os.Stderr, "satind result: -id required")
			os.Exit(2)
		}
		// A waiting fetch is bounded by the job, not the RPC timeout.
		rtmo := *tmo
		if *wait && rtmo < time.Hour {
			rtmo = time.Hour
		}
		r, err := ctl.Result(*id, *wait, rtmo)
		if err != nil {
			log.Fatalf("satind result: %v", err)
		}
		fmt.Printf("%s: %s", r.ID, r.State)
		if r.Check != "" {
			fmt.Printf(" (%s)", r.Check)
		}
		fmt.Println()
		if r.Result != "" {
			fmt.Printf("  result: %s\n", r.Result)
		}
		for i, s := range r.Iterations {
			fmt.Printf("  iteration %2d: %.3fs\n", i, s)
		}
		if r.Learned != "" {
			fmt.Printf("  learned: %s\n", r.Learned)
		}
		if r.Err != "" {
			fmt.Printf("  error: %s\n", r.Err)
			os.Exit(1)
		}
		if r.State != "done" {
			os.Exit(1)
		}
	}
}
