package satin

import (
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/transport/wire"
)

// worker states (metrics buckets plus implicit idle)
const stateIdle = -1

// Process-global observability instruments fed by every node: its
// report loop, and its registry join if that gives up. Queue depth is
// also published per node as a gauge so the endpoint shows the
// imbalance CRS is supposed to erase.
var (
	obsReportErr  = obs.Default.Counter("satin/report_err")
	obsReportSent = obs.Default.Counter("satin/report_sent")
	obsJoinFailed = obs.Default.Counter("satin/join_failed")
	obsQueueDepth = obs.Default.Histogram("satin/queue_depth", obs.DepthBuckets)
)

// statsTracker is the node's accounting component: the per-period
// metric buckets, the emulated competing load, and the benchmark
// pacing flag. It has its own narrow lock so that snapshotting from
// the report loop never serialises against job ownership under n.mu.
type statsTracker struct {
	epoch time.Time // monotonic origin for this node's report timeline

	// loadBits is the competing-load factor (float64 bits). It is atomic
	// so that enterState can see "no load" without taking mu.
	loadBits atomic.Uint64

	mu  sync.Mutex
	acc *metrics.Accumulator
	// curState is written by the worker goroutine only, under mu: the
	// worker may read it bare, everyone else reads it under mu.
	curState     int
	stateSince   time.Time // fold origin: advanced by every fold (enterState AND snapshot)
	stateEntered time.Time // true state entry: advanced only by enterState
	benchPending bool
}

func (s *statsTracker) init(cfg *NodeConfig) {
	s.epoch = cfg.Epoch
	if s.epoch.IsZero() {
		s.epoch = time.Now()
	}
	s.acc = metrics.NewAccumulator(cfg.ID, cfg.Cluster, 0)
	s.curState = stateIdle
	now := time.Now()
	s.stateSince = now
	s.stateEntered = now
	s.benchPending = cfg.Bench != nil
}

// monotonic is the node's report clock: seconds since its grid epoch.
func (s *statsTracker) monotonic() float64 { return time.Since(s.epoch).Seconds() }

// state is the worker's current accounting bucket. Worker goroutine
// only.
func (s *statsTracker) state() int { return s.curState }

func (s *statsTracker) loadFactor() float64 { return math.Float64frombits(s.loadBits.Load()) }

func (s *statsTracker) setLoad(f float64) {
	s.mu.Lock()
	if s.loadFactor() == 0 {
		// Unloaded, enterState skips same-state transitions, so the entry
		// time may be many tasks old: the stretch starts with the load.
		s.stateEntered = time.Now()
	}
	s.loadBits.Store(math.Float64bits(f))
	s.mu.Unlock()
}

func (s *statsTracker) benchDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.benchPending
}

func (s *statsTracker) clearBench() {
	s.mu.Lock()
	s.benchPending = false
	s.mu.Unlock()
}

func (s *statsTracker) armBench() {
	s.mu.Lock()
	s.benchPending = true
	s.mu.Unlock()
}

func (s *statsTracker) setSpeed(speed float64) {
	s.mu.Lock()
	s.acc.SetSpeed(speed)
	s.mu.Unlock()
}

func (s *statsTracker) addInterBytes(b float64) {
	s.mu.Lock()
	s.acc.AddInterBytes(b)
	s.mu.Unlock()
}

// countInterBytes books a received frame's wire bytes as inter-cluster
// traffic when the sender's endpoint sits in another cluster — the byte
// counts behind the coordinator's achieved-bandwidth estimate, which
// feeds the learned minimum-bandwidth requirement.
func (n *Node) countInterBytes(m wire.Meta) {
	if c := topo.ClusterOf(m.From); c != "" && c != n.cfg.Cluster {
		n.stats.addInterBytes(float64(m.Bytes))
	}
}

// enterState switches the accounting bucket. A competing load factor
// stretches busy and benchmark intervals by sleeping, emulating
// time-sharing with the load.
//
// The stretch length derives from stateEntered, never stateSince: a
// concurrent snapshot() folds the in-progress interval and advances
// stateSince, and computing the sleep from it would silently shrink
// the stretch to (time since last report) — on a frequently-monitored
// node the emulated load all but vanished and the saved wall time
// leaked into idle. Folding still uses stateSince so time is never
// double-counted against snapshot's folds.
//
// Without a load there is nothing to stretch, and a transition to the
// state the worker is already in changes no bucket: it returns before
// the clock is read. That is every nested task of a spawn tree (Busy
// inside Busy), which would otherwise pay two clock reads each.
func (s *statsTracker) enterState(next int) {
	load := s.loadFactor()
	if next == s.curState && load == 0 {
		return
	}
	s.mu.Lock()
	now := time.Now()
	stretched := now.Sub(s.stateEntered)
	if load > 0 && stretched > 0 &&
		(s.curState == int(metrics.Busy) || s.curState == int(metrics.Bench)) {
		// Stretch the interval by sleeping outside the lock, then fold
		// the stretched elapsed time in a second critical section.
		s.mu.Unlock()
		time.Sleep(time.Duration(float64(stretched) * load))
		s.mu.Lock()
		now = time.Now()
	}
	if el := now.Sub(s.stateSince); s.curState >= 0 && el > 0 {
		s.acc.Add(metrics.Bucket(s.curState), el.Seconds())
	}
	s.curState = next
	s.stateSince = now
	s.stateEntered = now
	s.mu.Unlock()
}

// snapshot folds the in-progress state into the period and returns the
// report. It advances the fold origin (stateSince) but NOT the state
// entry time: an in-progress busy stretch keeps its full length.
func (s *statsTracker) snapshot() metrics.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	el := now.Sub(s.stateSince).Seconds()
	if s.curState >= 0 && el > 0 {
		s.acc.Add(metrics.Bucket(s.curState), el)
	}
	s.stateSince = now
	return s.acc.Snapshot(s.monotonic())
}

// Report snapshots the node's statistics for the elapsed period.
func (n *Node) Report() metrics.Report { return n.stats.snapshot() }

// monotonicSeconds is the node's clock for the steal engine and the
// report timeline: seconds since the node's grid epoch (NodeConfig.
// Epoch), not since some process-wide instant — two grids in one
// process must not share a timeline.
func (n *Node) monotonicSeconds() float64 { return n.stats.monotonic() }

// queueDepth is the node's current backlog: deque plus inbox.
func (n *Node) queueDepth() int {
	return n.jobs.Len() + int(n.inbox.size.Load())
}

// reportLoop pushes per-period statistics to the cluster's
// sub-coordinator. Send failures are counted (satin/report_err) and
// logged once per failure streak — a coordinator that was evicted or
// crashed must not silently blind the adaptation loop.
func (n *Node) reportLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.MonitorPeriod)
	defer ticker.Stop()
	gauge := obs.Default.Gauge("satin/queue_depth/" + string(n.cfg.ID))
	to := topo.SubCoordinatorEndpoint(n.cfg.Coordinator, n.cfg.Cluster)
	failing := false // reportLoop-goroutine-local; logged on transitions
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			depth := n.queueDepth()
			gauge.Set(float64(depth))
			obsQueueDepth.Observe(float64(depth))
			if err := wire.Send(n.wc, to, n.Report()); err != nil {
				obsReportErr.Inc()
				if !failing {
					failing = true
					log.Printf("satin: node %s: statistics report to %q failed: %v", n.cfg.ID, to, err)
				}
			} else {
				obsReportSent.Inc()
				if failing {
					failing = false
					log.Printf("satin: node %s: statistics reports to %q recovered", n.cfg.ID, to)
				}
			}
		}
	}
}
