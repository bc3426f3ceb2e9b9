package adapt

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport/wire"
)

// SubCoordinator is the paper's §7 answer to the coordinator becoming
// a bottleneck on very large node counts: "a hierarchy of
// coordinators, one sub-coordinator per cluster which collects and
// processes statistics from its cluster, and one main coordinator
// which collects the information from the sub-coordinators."
//
// A SubCoordinator owns one cluster's endpoint; its nodes send their
// per-period reports there, it ingests them into a coord.SubKernel, and
// once per period one ClusterSummary travels to the main coordinator,
// cutting the main coordinator's message load from O(nodes) to
// O(clusters) per period. See shard.go for the period and the root
// failover.
type SubCoordinator struct {
	cluster ClusterID
	wc      *wire.Conn
	main    string
	period  time.Duration

	mu    sync.Mutex
	shard *subShard

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// SubEndpointName is the per-cluster endpoint the cluster's nodes
// report to when running hierarchically.
func SubEndpointName(cluster ClusterID) string {
	return EndpointName + "/" + string(cluster)
}

// Stop shuts the sub-coordinator down. Safe to call multiple times and
// from concurrent goroutines. A root coordinator this sub promoted
// during failover keeps running; stop it separately via Promoted().
func (sc *SubCoordinator) Stop() {
	sc.stopOnce.Do(func() {
		close(sc.stop)
		sc.wg.Wait()
		sc.shard.reg.Close()
		sc.wc.Close()
	})
}

func (sc *SubCoordinator) onReport(rep metrics.Report, _ wire.Meta) {
	sc.shard.kern.Report(rep)
}

func (sc *SubCoordinator) loop() {
	defer sc.wg.Done()
	ticker := time.NewTicker(sc.period)
	defer ticker.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-ticker.C:
			sc.shardTick()
		}
	}
}
