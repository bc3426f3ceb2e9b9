package des

import (
	"fmt"
	"sort"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sched"
	"repro/internal/steal"
	"repro/internal/vtime"
)

type phase int

const (
	phaseSeq      phase = iota // master runs the sequential part
	phaseExchange              // nodes receive the iteration's data
	phaseCompute               // work stealing over the task tree
	phaseStream                // streaming runs: stage/queue pipeline
	phaseDone
)

// simTask is a subtree of the current iteration's computation.
type simTask struct{ work float64 }

// simNode is one simulated processor taking part in the run.
type simNode struct {
	id      core.NodeID
	cluster core.ClusterID
	ref     sched.NodeRef
	site    netmodel.Site // the cluster's links, for the steal messages

	speedBase float64
	load      float64 // competing CPU load factor

	acc *metrics.Accumulator
	cum [4]float64 // lifetime busy/intra/inter/bench (metrics.Bucket order)

	participateStart vtime.Time

	// deque of ready tasks: front = oldest/biggest (steal side),
	// back = newest (own execution side) — Satin's double-ended queue.
	deque []simTask

	curWork float64      // work of the leaf being executed (0 = none)
	curItem *streamItem  // stream item being serviced (stream runs)
	curDur  float64      // its duration
	curDone *vtime.Timer // completion event of the running leaf
	leaf    *vtime.Timer // curDone of every batch leaf: fires leafDone

	benching     bool
	benchPending bool
	benchTimer   *vtime.Timer
	monTimer     *vtime.Timer
	loadAtBench  float64 // load factor at the last benchmark run

	// eng is the node's slice of the shared CRS policy kernel: victim
	// selection, sync/async slot occupancy and back-off state.
	eng   *steal.Engine
	retry *vtime.Timer // back-off re-attempt, pending while the node waits

	stealFree  vtime.Time // victim-side steal-handler serialisation
	lastWorkAt vtime.Time // completion time of the node's last leaf
	busyUntil  vtime.Time // end of the current leaf/benchmark: the
	// runtime only polls for steal requests between tasks, so requests
	// to a node grinding through a slow leaf wait until it finishes

	exchanging bool
	crashed    bool
	leaving    bool
	joined     bool // finished the join protocol (has the iteration data)
}

func (n *simNode) gone() bool { return n.crashed || n.leaving }
func (n *simNode) busy() bool { return n.curDone != nil || n.benching }

// effSpeed is the node's current effective speed: a competing load of
// factor L leaves the application 1/(1+L) of the CPU.
func (n *simNode) effSpeed() float64 { return n.speedBase / (1 + n.load) }

// Sim is one simulated run.
type Sim struct {
	p    Params
	k    *vtime.Sim
	net  *netmodel.Net
	pool *sched.Pool
	// kern is the shared adaptation kernel; the Sim is only its driver
	// (it feeds reports in and applies effects via simActuator). nil in
	// sharded mode, where subs and root carry the coordination state.
	kern *coord.Kernel
	subs map[core.ClusterID]*desSub
	root *desRoot

	nodes map[core.NodeID]*simNode
	order []*simNode // live nodes in deterministic order
	used  map[core.ClusterID]bool

	// stealMembers/stealView are the cached membership snapshot handed
	// to the steal engines (rebuilt lazily on churn): at 10k nodes any
	// O(nodes) work per steal attempt dominates the simulator's time;
	// the pre-indexed View makes each victim draw O(log cluster-size).
	// stealNodes runs parallel to stealMembers, so a directive's victim
	// positions name their nodes without a lookup by ID.
	stealMembers []steal.Member
	stealNodes   []*simNode
	stealView    *steal.View
	membersDirty bool
	stealPool    []*stealMsg     // finished steal attempts, for sendSteal to reuse
	stealDir     steal.Directive // the round tryStealing is acting on, rewritten each round

	master      *simNode
	coordClst   core.ClusterID
	clusterLoad map[core.ClusterID]float64 // ambient load for joiners

	phase       phase
	iter        int
	iterStart   vtime.Time
	outstanding int // tasks alive in the current iteration
	exchWaiting int
	parked      []simTask    // requeue target when no master exists
	stream      *streamState // streaming-run state (nil for batch runs)

	res     *Result
	done    bool
	aborted bool
}

// newEngine builds a node's steal engine; tests wrap it to see every
// engine of a run, departed nodes' too.
var newEngine = steal.New

// Run executes one simulation and returns its result.
func Run(p Params) (*Result, error) {
	res, _, err := runReturningSim(p)
	return res, err
}

// runReturningSim also hands the finished Sim back for inspection
// (probes and tests read the coordinator's final report view).
func runReturningSim(p Params) (*Result, *Sim, error) {
	s, err := newSim(p)
	if err != nil {
		return nil, nil, err
	}
	if s.p.Stream != nil {
		s.startStream()
	} else {
		s.startIteration()
	}
	s.k.Run()
	return s.finish(), s, nil
}

// newSim builds a run: its initial nodes joined, its injections and
// coordinator ticks posted, and nothing started.
func newSim(p Params) (*Sim, error) {
	p.Defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		p:           p,
		k:           vtime.New(p.Seed),
		net:         netmodel.New(p.Topo),
		nodes:       make(map[core.NodeID]*simNode),
		used:        make(map[core.ClusterID]bool),
		clusterLoad: make(map[core.ClusterID]float64),
		stealView:   steal.NewView(),
		res:         &Result{},
	}
	pool, err := sched.NewPool(p.Topo)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	if p.Sharded {
		rk, err := coord.NewRoot(s.rootConfig(), &simActuator{s})
		if err != nil {
			return nil, err
		}
		s.subs = make(map[core.ClusterID]*desSub)
		s.root = &desRoot{kern: rk}
	} else {
		kern, err := coord.New(s.rootConfig(), &simActuator{s})
		if err != nil {
			return nil, err
		}
		s.kern = kern
	}

	// Initial allocation: the user's hand-picked starting set.
	for _, a := range p.Initial {
		refs := s.pool.AcquireN(a.Cluster, a.Count)
		if len(refs) != a.Count {
			return nil, fmt.Errorf("des: could not acquire %d nodes in %s", a.Count, a.Cluster)
		}
		for _, ref := range refs {
			s.addNode(ref, true)
		}
	}
	s.setMaster(s.order[0])
	s.coordClst = s.master.cluster
	if s.root != nil {
		s.root.host = s.coordClst
	}

	for _, inj := range p.Events {
		inj := inj
		s.k.PostAt(vtime.Time(inj.At), func() { s.inject(inj) })
	}
	if p.Mon.Enabled && (p.Adapt != nil || p.StreamSLO != nil || p.MonitorOnly) {
		if s.sharded() {
			// The subs summarize one second before the root consumes, so
			// a summary (plus its ~ms of latency) reaches the root within
			// the same period it was built in.
			s.k.PostAt(vtime.Time(p.Mon.Period+1), s.subsTick)
			s.k.PostAt(vtime.Time(p.Mon.Period+2), s.rootTick)
		} else {
			s.k.PostAt(vtime.Time(p.Mon.Period+2), s.coordinatorTick)
		}
	}
	s.k.PostAt(vtime.Time(p.MaxTime), func() {
		if !s.done {
			s.aborted = true
			s.done = true
			s.k.Stop()
		}
	})
	return s, nil
}

// finish closes the accounting of a run the kernel has finished.
func (s *Sim) finish() *Result {
	s.res.Events = s.k.Fired()

	// Finalise accounting for nodes still alive; a departed node's
	// engine was published when it left.
	for _, n := range s.order {
		s.finalizeNode(n)
		n.eng.Publish()
	}
	s.res.FinalNodes = len(s.order)
	if s.stream != nil {
		s.res.Completed = !s.aborted && s.stream.finished
	} else {
		s.res.Completed = !s.aborted && s.iter >= s.p.Spec.Iterations
	}
	s.res.MinBandwidth = s.requirements().MinBandwidth()
	s.res.BlacklistedClusters = s.requirements().BlacklistedClusters()
	for c := range s.used {
		s.res.UsedClusters = append(s.res.UsedClusters, c)
	}
	sort.Slice(s.res.UsedClusters, func(i, j int) bool {
		return s.res.UsedClusters[i] < s.res.UsedClusters[j]
	})
	return s.res
}

// addTime books d seconds of bucket b on node n, both for the current
// monitoring period and the lifetime aggregate.
func (s *Sim) addTime(n *simNode, b metrics.Bucket, d float64) {
	n.acc.Add(b, d)
	n.cum[b] += d
}

// finalizeNode folds a departing (or surviving, at run end) node's
// lifetime accounting into the result.
func (s *Sim) finalizeNode(n *simNode) {
	life := float64(s.k.Now() - n.participateStart)
	s.res.NodeSeconds += life
	covered := 0.0
	for _, v := range n.cum {
		covered += v
	}
	s.res.BusySec += n.cum[metrics.Busy]
	s.res.IntraSec += n.cum[metrics.Intra]
	s.res.InterSec += n.cum[metrics.Inter]
	s.res.BenchSec += n.cum[metrics.Bench]
	if idle := life - covered; idle > 0 {
		s.res.IdleSec += idle
	}
	n.cum = [4]float64{}
	n.participateStart = s.k.Now()
}

// addNode brings a granted processor into the computation. Immediate
// nodes (the initial allocation) participate at once; later grants go
// through the join protocol: deployment delay, then fetching the
// application state (BytesPerNode) from the master's cluster.
func (s *Sim) addNode(ref sched.NodeRef, immediate bool) {
	spec, _ := s.p.Topo.Cluster(ref.Cluster)
	n := &simNode{
		id:        ref.Node,
		cluster:   ref.Cluster,
		ref:       ref,
		site:      s.net.Site(ref.Cluster),
		speedBase: spec.Speed,
		load:      s.clusterLoad[ref.Cluster],
		eng:       newEngine(s.p.StealPolicy, ref.Node, ref.Cluster, steal.SeedFor(s.p.Seed, ref.Node)),
	}
	n.leaf = s.k.NewTimer(func() { s.leafDone(n) })
	n.retry = s.k.NewTimer(func() { s.nodeIdle(n) })
	start := func() {
		if s.done || n.gone() {
			return
		}
		n.participateStart = s.k.Now()
		n.acc = metrics.NewAccumulator(n.id, n.cluster, float64(s.k.Now()))
		s.nodes[n.id] = n
		s.order = append(s.order, n)
		s.membersDirty = true
		if s.sharded() {
			s.subFor(n.cluster)
		}
		s.used[n.cluster] = true
		if len(s.order) > s.res.PeakNodes {
			s.res.PeakNodes = len(s.order)
		}
		becameMaster := false
		if s.master == nil {
			s.setMaster(n)
			becameMaster = true
			if len(s.parked) > 0 {
				n.deque = append(n.deque, s.parked...)
				s.parked = nil
			}
		}
		n.joined = true
		if s.p.Mon.Enabled {
			n.benchPending = true
			s.scheduleMonitor(n)
		}
		if becameMaster {
			// The whole computation may have died before this grant
			// landed; the new master restarts whatever phase stalled.
			switch s.phase {
			case phaseSeq:
				s.startSeq()
				return
			case phaseExchange:
				s.startExchange()
				return
			case phaseCompute:
				if s.outstanding == 0 && len(s.parked) == 0 && len(n.deque) == 0 {
					// startCompute ran with no master: the root task was
					// never seeded. Seed it now.
					s.outstanding = 1
					n.deque = append(n.deque, simTask{work: s.p.Spec.IterWork(s.iter)})
				}
			}
		}
		if s.phase == phaseCompute || s.phase == phaseStream {
			s.nodeIdle(n)
		}
	}
	if immediate {
		start()
		return
	}
	s.k.Post(joinDelay, func() {
		if s.done {
			s.pool.Release(ref)
			return
		}
		// Fetch the application state (bodies) from the master's site.
		src := s.coordClst
		if s.master != nil {
			src = s.master.cluster
		}
		var doneAt vtime.Time
		if src == ref.Cluster {
			doneAt = s.net.Intra(s.k.Now(), ref.Cluster, s.p.Spec.BytesPerNode)
		} else {
			doneAt = s.net.Inter(s.k.Now(), src, ref.Cluster, s.p.Spec.BytesPerNode)
		}
		s.k.PostAt(doneAt, start)
	})
}

// liveNodes returns the current participants (deterministic order).
func (s *Sim) liveNodes() []*simNode { return s.order }

// removeFromOrder drops n from the live list.
func (s *Sim) removeFromOrder(n *simNode) {
	for i, m := range s.order {
		if m == n {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	delete(s.nodes, n.id)
	s.membersDirty = true
	s.forgetNode(n)
	n.eng.Publish()
}

func (s *Sim) cancelNodeTimers(n *simNode) {
	for _, t := range []*vtime.Timer{n.curDone, n.benchTimer, n.monTimer, n.retry} {
		if t != nil {
			t.Cancel()
		}
	}
	n.curDone, n.benchTimer, n.monTimer = nil, nil, nil
}

// requeue puts a task back into the computation (recompute semantics:
// Satin's fault tolerance re-executes orphaned jobs).
func (s *Sim) requeue(t simTask) {
	if s.master == nil {
		s.parked = append(s.parked, t)
		return
	}
	m := s.master
	m.deque = append(m.deque, t)
	if s.phase == phaseCompute && !m.busy() {
		s.nodeIdle(m)
	}
}

// setMaster records the master and keeps the kernel's protected set in
// sync: the master hosts the root of the computation (and, in the real
// system, the process the user started), so it must never be evicted.
func (s *Sim) setMaster(n *simNode) {
	s.master = n
	if s.kern == nil {
		s.syncProtected()
		return
	}
	if n != nil {
		s.kern.SetProtected(n.id)
	} else {
		s.kern.SetProtected()
	}
}

// pickNewMaster promotes the first live node after the master left.
func (s *Sim) pickNewMaster() {
	if len(s.order) > 0 {
		s.setMaster(s.order[0])
	} else {
		s.setMaster(nil)
	}
}

// leave removes a node gracefully (coordinator-requested): its queued
// and running jobs move back to the master with negligible cost, as in
// Satin's malleability protocol.
func (s *Sim) leave(n *simNode) {
	if n.gone() {
		return
	}
	n.leaving = true
	wasMaster := n == s.master
	wasExchanging := n.exchanging
	n.exchanging = false
	s.cancelNodeTimers(n)
	s.finalizeNode(n)
	s.removeFromOrder(n)
	if wasMaster {
		s.pickNewMaster()
	}
	for _, t := range n.deque {
		s.requeue(t)
	}
	if n.curWork > 0 {
		s.requeue(simTask{work: n.curWork})
		n.curWork = 0
	}
	if it := n.curItem; it != nil {
		// The item in service goes back to the head of its stage's queue
		// (malleability protocol: state moves off gracefully). Its clock
		// keeps running — departure still counts against the latency SLO.
		n.curItem = nil
		s.streamRequeue(it)
	}
	n.deque = nil
	s.pool.Release(n.ref)
	if wasExchanging {
		s.exchangeDone()
	}
	if wasMaster && s.phase == phaseSeq {
		s.startSeq() // restart the sequential phase on the new master
	}
}

// crash fails a node abruptly. Its work reappears elsewhere only after
// the failure is detected (crashDetect), modelling the registry's
// heartbeat fault detection plus Satin's orphan recomputation.
func (s *Sim) crash(n *simNode) {
	if n.gone() {
		return
	}
	n.crashed = true
	wasMaster := n == s.master
	wasExchanging := n.exchanging
	n.exchanging = false
	s.cancelNodeTimers(n)
	s.finalizeNode(n)
	s.removeFromOrder(n)
	if wasMaster {
		s.pickNewMaster()
	}
	s.pool.MarkDead(n.id)
	lost := append([]simTask(nil), n.deque...)
	if n.curWork > 0 {
		lost = append(lost, simTask{work: n.curWork})
		n.curWork = 0
	}
	lostItem := n.curItem
	n.curItem = nil
	n.deque = nil
	if len(lost) > 0 || lostItem != nil {
		s.k.Post(crashDetect, func() {
			if s.done {
				return
			}
			for _, t := range lost {
				s.requeue(t)
			}
			if lostItem != nil {
				// Recomputed from the stage input after detection; the
				// item's arrival clock never stops, so the fault shows up
				// as a latency spike the SLO objective must recover from.
				s.streamRequeue(lostItem)
			}
		})
	}
	if wasExchanging {
		s.exchangeDone()
	}
	if wasMaster && s.phase == phaseSeq && s.master != nil {
		s.k.Post(crashDetect, func() {
			if !s.done && s.phase == phaseSeq {
				s.startSeq()
			}
		})
	}
}

// ---- iteration state machine ----

func (s *Sim) startIteration() {
	if s.done {
		return
	}
	s.iterStart = s.k.Now()
	s.outstanding = 0
	s.phase = phaseSeq
	s.startSeq()
}

// startSeq runs the master-only sequential phase (tree build).
func (s *Sim) startSeq() {
	if s.done || s.phase != phaseSeq {
		return
	}
	m := s.master
	if m == nil {
		return // a later join restarts the phase
	}
	if s.p.Spec.SequentialPerIteration == 0 {
		s.startExchange()
		return
	}
	if m.busy() {
		// The master is mid-benchmark; the sequential phase starts when
		// it finishes (bench completion re-enters startSeq).
		return
	}
	dur := s.p.Spec.SequentialPerIteration / m.effSpeed()
	m.curWork = -1 // marks "in sequential phase", not a requeueable leaf
	m.curDone = s.k.After(dur, func() {
		m.curDone = nil
		m.curWork = 0
		s.addTime(m, metrics.Busy, dur)
		s.startExchange()
	})
}

// startExchange distributes the iteration's data: every node receives
// BytesPerNode. Cross-cluster data travels the uplinks once per
// source/destination cluster pair (Ibis-style spanning-tree broadcast),
// then fans out over the destination LAN, so a throttled uplink delays
// a whole cluster by one remote copy per iteration — not one per node.
func (s *Sim) startExchange() {
	if s.done {
		return
	}
	s.phase = phaseExchange
	live := s.liveNodes()
	if len(live) == 0 {
		return
	}
	if s.p.Spec.ExchangeBytes == 0 {
		s.startCompute()
		return
	}
	perCluster := make(map[core.ClusterID]int)
	for _, n := range live {
		perCluster[n.cluster]++
	}
	var clusterIDs []core.ClusterID
	for c := range perCluster {
		clusterIDs = append(clusterIDs, c)
	}
	sort.Slice(clusterIDs, func(i, j int) bool { return clusterIDs[i] < clusterIDs[j] })
	total := float64(len(live))
	now := s.k.Now()

	// One cross-cluster transfer per (source, destination) pair: the
	// destination cluster holds the complete remote data once the last
	// source's copy lands.
	clusterArrive := make(map[core.ClusterID]vtime.Time, len(clusterIDs))
	remotePerCluster := make(map[core.ClusterID]float64, len(clusterIDs))
	for _, dst := range clusterIDs {
		arrive := now
		for _, src := range clusterIDs {
			if src == dst {
				continue
			}
			bytes := s.p.Spec.ExchangeBytes * float64(perCluster[src]) / total
			remotePerCluster[dst] += bytes
			if d := s.net.Inter(now, src, dst, bytes); d > arrive {
				arrive = d
			}
		}
		clusterArrive[dst] = arrive
	}

	s.exchWaiting = 0
	for _, n := range live {
		n := n
		interDone := clusterArrive[n.cluster]
		// Local fan-out: the node pulls its full working set over the
		// switched LAN (own cluster's share immediately, the remote
		// share once it arrived at the cluster head).
		lanTime := s.net.Intra(now, n.cluster, s.p.Spec.ExchangeBytes) - now
		doneAt := interDone + lanTime
		if d := now + lanTime; d > doneAt {
			doneAt = d
		}
		wait := float64(doneAt - now)
		interAttr := float64(interDone - now)
		if interAttr > wait {
			interAttr = wait
		}
		s.addTime(n, metrics.Inter, interAttr)
		s.addTime(n, metrics.Intra, wait-interAttr)
		if nc := float64(perCluster[n.cluster]); nc > 0 {
			n.acc.AddInterBytes(remotePerCluster[n.cluster] / nc)
		}
		n.exchanging = true
		s.exchWaiting++
		s.k.PostAt(doneAt, func() {
			if !n.exchanging {
				return
			}
			n.exchanging = false
			s.exchangeDone()
		})
	}
}

func (s *Sim) exchangeDone() {
	s.exchWaiting--
	if s.exchWaiting <= 0 && s.phase == phaseExchange {
		s.startCompute()
	}
}

// startCompute seeds the task tree at the master and wakes everyone.
func (s *Sim) startCompute() {
	if s.done {
		return
	}
	s.phase = phaseCompute
	if s.master == nil {
		return
	}
	s.outstanding = 1
	s.master.deque = append(s.master.deque, simTask{work: s.p.Spec.IterWork(s.iter)})
	for _, n := range s.liveNodes() {
		if n.joined && !n.busy() {
			s.nodeIdle(n)
		}
	}
}

func (s *Sim) endIteration() {
	s.res.Iterations = append(s.res.Iterations, IterRecord{
		Index:    s.iter,
		Start:    float64(s.iterStart),
		Duration: float64(s.k.Now() - s.iterStart),
		Nodes:    len(s.order),
	})
	s.iter++
	if s.iter >= s.p.Spec.Iterations {
		s.phase = phaseDone
		s.done = true
		s.res.Runtime = float64(s.k.Now())
		s.k.Stop()
		return
	}
	s.startIteration()
}

func (s *Sim) annotate(label string) {
	s.res.Annotations = append(s.res.Annotations, Annotation{
		Time: float64(s.k.Now()), Label: label,
	})
}

// inject applies a scenario disturbance.
func (s *Sim) inject(inj Injection) {
	if s.done {
		return
	}
	label := inj.Label
	switch inj.Kind {
	case InjSetLoad:
		count := 0
		for _, n := range s.liveNodes() {
			if n.cluster != inj.Cluster {
				continue
			}
			if inj.Count > 0 && count >= inj.Count {
				break
			}
			n.load = inj.Load
			count++
		}
		if inj.Count == 0 {
			s.clusterLoad[inj.Cluster] = inj.Load
		}
		if label == "" {
			label = fmt.Sprintf("load %.0fx on %d nodes of %s", inj.Load, count, inj.Cluster)
		}
	case InjShapeUplink:
		if up := s.net.Uplink(inj.Cluster); up != nil {
			up.SetBandwidth(inj.Bandwidth)
		}
		if label == "" {
			label = fmt.Sprintf("uplink of %s shaped to %.0f B/s", inj.Cluster, inj.Bandwidth)
		}
	case InjCrash:
		var victims []*simNode
		for _, n := range s.liveNodes() {
			if n.cluster != inj.Cluster {
				continue
			}
			if inj.Count > 0 && len(victims) >= inj.Count {
				break
			}
			victims = append(victims, n)
		}
		for _, n := range victims {
			s.crash(n)
		}
		if label == "" {
			label = fmt.Sprintf("%d nodes of %s crashed", len(victims), inj.Cluster)
		}
	case InjCrashRoot:
		if s.sharded() {
			s.crashRoot()
		}
		if label == "" {
			label = "root coordinator crashed"
		}
	case InjCrashSub:
		if s.sharded() {
			s.crashSub(inj.Cluster)
		}
		if label == "" {
			label = fmt.Sprintf("sub-coordinator of %s crashed", inj.Cluster)
		}
	}
	s.annotate(label)
}
