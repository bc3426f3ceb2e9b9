package cli

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/job"
	"repro/internal/workload"
	"repro/satin"
)

// JobFlags are the flags that describe one job, the same for a job run
// here (satinrun) and a job sent to a daemon (satind submit).
type JobFlags struct {
	App, Class, Stages, Shape, Load *string
	Size, Iters, Items              *int
	Rate, Target                    *float64
	Adapt                           *bool
	Period                          *time.Duration
}

// AddJobFlags registers them on fs. The two binaries word -size, -iters
// and -period differently, and only satinrun has a default period.
func AddJobFlags(fs *flag.FlagSet, sizeHelp, itersHelp, periodHelp string, period time.Duration) *JobFlags {
	return &JobFlags{
		App:    fs.String("app", "fib", "fib | nqueens | integrate | tsp | knapsack | barneshut"),
		Size:   fs.Int("size", 24, sizeHelp),
		Iters:  fs.Int("iters", 1, itersHelp),
		Class:  fs.String("class", "batch", "workload class: batch | stream"),
		Stages: fs.String("stages", "decode=0.05,transform=0.15,encode=0.05", "stream pipeline: name=seconds[/bytes],..."),
		Rate:   fs.Float64("rate", 10, "stream: item arrival rate (items/s)"),
		Items:  fs.Int("items", 100, "stream: total items to emit"),
		Target: fs.Float64("target", 2, "stream: end-to-end latency SLO (seconds)"),
		Adapt:  fs.Bool("adapt", false, "run the adaptation coordinator"),
		Period: fs.Duration("period", period, periodHelp),
		Shape:  fs.String("shape", "", "throttle a cluster's WAN link: fs1=5000 (bytes/s)"),
		Load:   fs.String("load", "", "competing CPU load on a cluster: fs1=3"),
	}
}

// Spec turns the parsed flags into a job spec, or says which flag is
// malformed (exit 2 material). -shape and -load are checked against
// clusters; nil leaves their cluster names to the daemon, which knows
// the deployment and revalidates the whole spec at submit anyway.
func (f *JobFlags) Spec(clusters []satin.ClusterSpec) (job.Spec, error) {
	spec := job.Spec{
		App: *f.App, Size: *f.Size, Iters: *f.Iters,
		Adapt: *f.Adapt, Period: *f.Period,
	}
	switch *f.Class {
	case "batch":
	case "stream":
		st, err := job.ParseStages(*f.Stages)
		if err != nil {
			return spec, fmt.Errorf("-stages: %v", err)
		}
		stream := workload.StreamSpec{
			Name: "cli", Stages: st,
			RateHz: *f.Rate, Items: *f.Items, TargetLatency: *f.Target,
		}
		if err := stream.Validate(); err != nil {
			return spec, fmt.Errorf("stream spec: %v", err)
		}
		spec.Class = "stream"
		spec.Stream = &stream
	default:
		return spec, fmt.Errorf("-class must be batch or stream, got %q", *f.Class)
	}
	kv := func(flag, value string) (map[string]float64, error) {
		if value == "" {
			return nil, nil
		}
		cluster, v, err := job.ParseKV(value, clusters)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", flag, err)
		}
		return map[string]float64{string(cluster): v}, nil
	}
	var err error
	if spec.Shape, err = kv("-shape", *f.Shape); err != nil {
		return spec, err
	}
	spec.Load, err = kv("-load", *f.Load)
	return spec, err
}
