package des

import (
	"repro/internal/metrics"
	"repro/internal/steal"
	"repro/internal/vtime"
)

// nodeIdle is the node's dispatch loop: run a due benchmark, else pop
// the newest task off the own end of the deque (splitting it down to a
// leaf, which fills the deque with the subtree's other halves — the
// work-first execution order of Satin/Cilk), else go stealing.
func (s *Sim) nodeIdle(n *simNode) {
	if s.done || n.gone() || !n.joined || n.busy() ||
		(s.phase != phaseCompute && s.phase != phaseStream) {
		return
	}
	if n.benchPending {
		s.startBench(n)
		return
	}
	if s.phase == phaseStream {
		s.streamDispatch(n)
		return
	}
	if len(n.deque) > 0 {
		t := n.deque[len(n.deque)-1]
		n.deque = n.deque[:len(n.deque)-1]
		// Split down to a leaf: each split pushes the sibling subtree
		// onto the steal side of the computation (the front stays the
		// oldest = biggest task, which is what thieves take).
		for s.p.Spec.ShouldSplit(t.work) {
			a, b := s.p.Spec.Split(t.work, s.k.Rand())
			n.deque = append(n.deque, simTask{work: b})
			s.outstanding++
			t = simTask{work: a}
		}
		s.execute(n, t)
		return
	}
	s.tryStealing(n)
}

// execute runs a leaf to completion; leaves are not preemptible, which
// is why a big leaf on a heavily loaded node produces the long
// end-of-iteration tails of the paper's scenario 3.
func (s *Sim) execute(n *simNode, t simTask) {
	n.curDur = t.work / n.effSpeed()
	n.curWork = t.work
	n.busyUntil = s.k.Now() + vtime.Time(n.curDur)
	n.leaf.Reset(n.curDur)
	n.curDone = n.leaf
}

// leafDone is n.leaf firing: the leaf execute started has run.
func (s *Sim) leafDone(n *simNode) {
	n.curDone = nil
	n.curWork = 0
	n.lastWorkAt = s.k.Now()
	s.addTime(n, metrics.Busy, n.curDur)
	s.outstanding--
	if s.outstanding == 0 && s.phase == phaseCompute {
		s.endIteration()
		return
	}
	s.nodeIdle(n)
}

// tryStealing drives the shared steal-policy kernel (internal/steal):
// a membership snapshot goes in, victim directives come out. Under
// CRS one asynchronous wide-area steal stays outstanding while the
// node issues synchronous local steals, hiding WAN latency behind LAN
// attempts; the StealRandom ablation picks victims uniformly and pays
// every WAN round trip synchronously.
func (s *Sim) tryStealing(n *simNode) {
	if s.done || n.gone() || !n.joined || n.busy() || s.phase != phaseCompute || len(n.deque) > 0 {
		return
	}
	d := &s.stealDir
	n.eng.NextViewInto(float64(s.k.Now()), s.stealSnapshot(), d)
	if d.HasAsync {
		s.sendSteal(n, s.stealNodes[d.AsyncAt], true, true)
	}
	if d.HasSync {
		v := s.stealNodes[d.SyncAt]
		s.sendSteal(n, v, v.cluster != n.cluster, false)
	} else if !d.HasAsync && !n.eng.Outstanding() {
		// Nobody to steal from at all: back off and retry.
		s.scheduleRetry(n)
	}
}

// stealSnapshot returns the shared pre-indexed membership view the
// steal engines pick victims from, rebuilt only when membership
// changed (NextView excludes the caller itself, so one view serves
// every thief).
func (s *Sim) stealSnapshot() *steal.View {
	if s.membersDirty {
		s.stealMembers = s.stealMembers[:0]
		clear(s.stealNodes) // a departed node must not stay reachable from the tail
		s.stealNodes = s.stealNodes[:0]
		for _, v := range s.order {
			if v.joined {
				s.stealMembers = append(s.stealMembers, steal.Member{ID: v.id, Cluster: v.cluster})
				s.stealNodes = append(s.stealNodes, v)
			}
		}
		s.stealView.Rebuild(s.stealMembers)
		s.membersDirty = false
	}
	return s.stealView
}

// scheduleRetry arms an exponential-backoff re-attempt so an idle node
// keeps probing for work without flooding the event queue.
func (s *Sim) scheduleRetry(n *simNode) {
	if !n.retry.Pending() {
		n.retry.Reset(n.eng.BackoffSec())
	}
}

// stealMsg is one steal attempt in flight, from the request leaving
// the thief n to the reply landing there. Its steps are closures bound
// once, and stealReply hands the finished attempt back to
// Sim.stealPool: the simulator's most frequent chain of events
// allocates nothing once the pool has filled.
type stealMsg struct {
	n, v           *simNode
	inter, wanSlot bool
	lat            float64
	issuedAt       vtime.Time
	stolen         simTask // the job on its way back, from handle on
	wireSec, bytes float64 // its network time and size

	arrive, handle, refuse, deliver func()
}

// sendSteal delivers a steal request from thief n to victim v. The
// request is a small control message (latency only); the victim
// serialises request handling (a loaded victim's runtime thread runs
// rarely, so its handling delay scales with the competing load); a
// stolen job's payload then travels back through the real links.
func (s *Sim) sendSteal(n, v *simNode, inter, wanSlot bool) {
	var m *stealMsg
	if k := len(s.stealPool); k > 0 {
		m, s.stealPool = s.stealPool[k-1], s.stealPool[:k-1]
	} else {
		m = &stealMsg{}
		m.arrive = func() { s.stealArrive(m) }
		m.handle = func() { s.stealHandle(m) }
		m.refuse = func() { s.stealReply(m, false, 2*m.lat) }
		m.deliver = func() { s.stealDeliver(m) }
	}
	// Field by field: a struct literal would store the four bound
	// closures again. stolen, wireSec and bytes are set by stealHandle
	// before anything reads them.
	m.n, m.v, m.inter, m.wanSlot = n, v, inter, wanSlot
	m.lat, m.issuedAt = n.site.Latency(v.site), s.k.Now()
	s.k.Post(m.lat, m.arrive)
}

// stealArrive is the request reaching the victim's machine.
func (s *Sim) stealArrive(m *stealMsg) {
	v := m.v
	if s.done {
		return
	}
	if v.gone() || !v.joined {
		// Connection refused — fast failure back to the thief.
		s.k.Post(m.lat, m.refuse)
		return
	}
	// The victim handles the request at the next poll point: after
	// its current leaf or benchmark (the runtime only polls between
	// tasks) and after previously queued requests, with a handling
	// delay that competing load stretches (a loaded machine's
	// runtime thread is scheduled rarely).
	handleAt := s.k.Now()
	if v.stealFree > handleAt {
		handleAt = v.stealFree
	}
	if v.busyUntil > handleAt {
		handleAt = v.busyUntil
	}
	v.stealFree = handleAt + vtime.Time(pollInterval*(1+v.load))
	s.k.PostAt(v.stealFree, m.handle)
}

// stealHandle is the victim's runtime looking at the request.
func (s *Sim) stealHandle(m *stealMsg) {
	n, v := m.n, m.v
	if s.done {
		return
	}
	if v.gone() || s.phase != phaseCompute || len(v.deque) == 0 {
		s.k.Post(m.lat, m.refuse)
		return
	}
	// Steal the oldest = biggest subtree. The rest moves down rather
	// than the slice's start moving up, so the deque keeps its capacity
	// and the victim's next splits append without growing it again.
	m.stolen = v.deque[0]
	v.deque = v.deque[:copy(v.deque, v.deque[1:])]
	handover := s.k.Now()
	// The job carries its data: a big subtree entering a
	// badly connected cluster drags its body share through
	// the thin uplink.
	m.bytes = s.p.Spec.JobBytes(m.stolen.work)
	var deliverAt vtime.Time
	if m.inter {
		deliverAt = v.site.Inter(handover, n.site, m.bytes)
	} else {
		deliverAt = v.site.Intra(handover, m.bytes)
	}
	// Only genuine network time counts as communication: the
	// request latency plus the reply's transfer time (including
	// any queueing on a congested uplink). Time spent waiting
	// for the victim's poll point is idle time at the thief.
	m.wireSec = m.lat + float64(deliverAt-handover)
	s.k.PostAt(deliverAt, m.deliver)
}

// stealDeliver is the stolen job reaching the thief.
func (s *Sim) stealDeliver(m *stealMsg) {
	commSec := m.wireSec
	if m.wanSlot && m.n.lastWorkAt > m.issuedAt {
		// The asynchronous wide-area steal overlapped with
		// local work — which is CRS's whole point — so the
		// transfer cost the thief only the round trips, not
		// the wire time. A starved thief (no work completed
		// since issuing) truly waited on the WAN and is
		// charged in full. The wire time still feeds the
		// pair-bandwidth estimate either way.
		commSec = 2 * m.lat
	}
	s.stealReply(m, true, commSec)
}

// stealReply lands at the thief: either a job (got) or a failure.
// commSec is the attempt's network time, booked as intra- or
// inter-cluster communication — the signal the coordinator's badness
// formula keys on (the rest of the attempt is implicit idle time).
func (s *Sim) stealReply(m *stealMsg, got bool, commSec float64) {
	s.landSteal(m, got, commSec)
	// The attempt ends here, after everything landSteal started
	// (nodeIdle may send the next steal), which found the pool without
	// it.
	s.stealPool = append(s.stealPool, m)
}

// landSteal is stealReply's work at the thief.
func (s *Sim) landSteal(m *stealMsg, got bool, commSec float64) {
	n, inter := m.n, m.inter
	if m.wanSlot {
		n.eng.AsyncDone(got)
	} else {
		n.eng.SyncDone(got)
	}
	if n.gone() {
		n.eng.Publish() // published when it left; this settle came later
	}
	if s.done {
		if got {
			s.requeue(m.stolen)
		}
		return
	}
	if n.gone() {
		if got {
			// The thief left while the job was in flight: the job is
			// orphaned and gets recomputed via the master.
			s.requeue(m.stolen)
		}
		return
	}
	bucket := metrics.Intra
	if inter {
		bucket = metrics.Inter
	}
	s.addTime(n, bucket, commSec)
	if !got {
		if !n.busy() && len(n.deque) == 0 && s.phase == phaseCompute {
			s.scheduleRetry(n)
		}
		return
	}
	if inter {
		n.acc.AddInterBytes(m.bytes)
		if m.wireSec > 0 && m.bytes > 0 {
			// One observed data transfer with the victim's cluster —
			// the pair-bandwidth estimation the coordinator's cluster
			// eviction rule runs on.
			n.acc.AddLinkSample(m.v.cluster, m.wireSec, m.bytes)
		}
	}
	if s.phase != phaseCompute {
		// Iteration ended while the job was in flight — cannot happen
		// for live jobs (they count as outstanding), but guard anyway.
		s.requeue(m.stolen)
		return
	}
	n.deque = append(n.deque, m.stolen)
	s.nodeIdle(n)
}

// ---- benchmarking and monitoring ----

// startBench runs the application-specific speed benchmark: the
// application itself with a small problem size (benchWork). Its
// duration on the current effective speed *is* the measurement.
func (s *Sim) startBench(n *simNode) {
	n.benchPending = false
	n.benching = true
	dur := benchWork / n.effSpeed()
	n.busyUntil = s.k.Now() + vtime.Time(dur)
	s.k.Post(dur, func() {
		n.benching = false
		if n.gone() || s.done {
			return
		}
		s.addTime(n, metrics.Bench, dur)
		noise := 1 + speedNoise*(2*s.k.Rand().Float64()-1)
		n.acc.SetSpeed(n.effSpeed() * noise)
		n.loadAtBench = n.load
		// Re-run at the frequency the overhead budget allows: a run of
		// dur seconds every dur/budget seconds costs exactly budget.
		interval := dur / benchBudget
		var rearm func()
		rearm = func() {
			n.benchTimer = s.k.After(interval, func() {
				n.benchTimer = nil
				if n.gone() || s.done {
					return
				}
				if s.p.Mon.LoadAware && n.load == n.loadAtBench {
					// Load-aware optimisation (§3.2): the OS-level load
					// did not change, so the speed cannot have either —
					// skip the run and keep the previous measurement.
					rearm()
					return
				}
				n.benchPending = true
				if !n.busy() && (s.phase == phaseCompute || s.phase == phaseStream) {
					s.nodeIdle(n)
				}
			})
		}
		rearm()
		if s.phase == phaseSeq && n == s.master {
			s.startSeq()
			return
		}
		s.nodeIdle(n)
	})
}

// scheduleMonitor arms a node's periodic statistics snapshot. Each node
// keeps its own period phase (clocks are not synchronised with the
// coordinator, as in the paper); reports travel to the coordinator
// with normal message latency.
func (s *Sim) scheduleMonitor(n *simNode) {
	n.monTimer = s.k.After(s.p.Mon.Period, func() {
		n.monTimer = nil
		if n.gone() || s.done {
			return
		}
		rep := n.acc.Snapshot(float64(s.k.Now()))
		if s.sharded() {
			// Reports stay inside the cluster: the sub-coordinator is
			// co-located, one LAN latency away.
			lat := s.net.Latency(n.cluster, n.cluster)
			cluster := n.cluster
			s.k.Post(lat, func() {
				if s.done {
					return
				}
				if _, live := s.nodes[n.id]; live {
					s.deliverReport(cluster, rep)
				}
			})
		} else {
			lat := s.net.Latency(n.cluster, s.coordClst)
			s.k.Post(lat, func() {
				if s.done {
					return
				}
				if _, live := s.nodes[n.id]; live {
					s.kern.Report(rep)
				}
			})
		}
		s.scheduleMonitor(n)
	})
}
