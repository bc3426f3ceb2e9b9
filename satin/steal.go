package satin

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/steal"
	"repro/internal/transport/wire"
)

// Steal round-trip instruments, by attempt kind: "local" is the
// synchronous same-cluster attempt, "wan" a synchronous cross-cluster
// attempt (Random policy pays these in the idle path), "wan_async" the
// latency-hidden CRS wide-area slot. Timed around the full
// request/reply round trip including the emulated link.
var (
	obsStealRTT = map[string]*obs.Histogram{
		"local":     obs.Default.Histogram("satin/steal_rtt/local", obs.LatencyBuckets),
		"wan":       obs.Default.Histogram("satin/steal_rtt/wan", obs.LatencyBuckets),
		"wan_async": obs.Default.Histogram("satin/steal_rtt/wan_async", obs.LatencyBuckets),
	}
	obsStealOK = map[string]*obs.Counter{
		"local":     obs.Default.Counter("satin/steal_ok/local"),
		"wan":       obs.Default.Counter("satin/steal_ok/wan"),
		"wan_async": obs.Default.Counter("satin/steal_ok/wan_async"),
	}
	obsStealFail = map[string]*obs.Counter{
		"local":     obs.Default.Counter("satin/steal_fail/local"),
		"wan":       obs.Default.Counter("satin/steal_fail/wan"),
		"wan_async": obs.Default.Counter("satin/steal_fail/wan_async"),
	}
)

// StealPolicy selects the victim-selection algorithm. The policy
// itself lives in internal/steal — one kernel drives both this runtime
// and the internal/des simulator.
type StealPolicy = steal.Policy

const (
	// StealCRS is cluster-aware random stealing: one asynchronous
	// wide-area steal outstanding while synchronous local steals run —
	// Satin's algorithm, the default.
	StealCRS = steal.CRS
	// StealRandom picks victims uniformly from all nodes and steals
	// synchronously, paying the WAN round trip in the idle path — the
	// baseline CRS was invented to beat.
	StealRandom = steal.Random
)

// stealer is the node's thief side: the shared CRS policy engine plus
// the reply-waiter bookkeeping of the request/reply protocol. Its lock
// covers only the waiter map — victim selection locks inside the
// engine, and neither ever holds n.mu.
type stealer struct {
	eng *steal.Engine

	mu      sync.Mutex
	waiters map[uint64]chan bool
	nextSeq uint64
}

func (s *stealer) init(cfg *NodeConfig) {
	s.eng = steal.New(cfg.StealPolicy, cfg.ID, cfg.Cluster, steal.SeedFor(cfg.Seed, cfg.ID))
	s.waiters = make(map[uint64]chan bool)
}

func (s *stealer) addWaiter() (uint64, chan bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	ch := make(chan bool, 1)
	s.waiters[s.nextSeq] = ch
	return s.nextSeq, ch
}

func (s *stealer) dropWaiter(seq uint64) {
	s.mu.Lock()
	delete(s.waiters, seq)
	s.mu.Unlock()
}

func (s *stealer) replyArrived(seq uint64, got bool) {
	s.mu.Lock()
	ch := s.waiters[seq]
	s.mu.Unlock()
	if ch != nil {
		select {
		case ch <- got:
		default:
		}
	}
}

// trySteal runs one round of the steal policy: the engine picks
// victims from the membership view, this node contacts them. Under CRS
// the wide-area victim is contacted asynchronously (latency hidden
// behind the synchronous local attempt); under StealRandom the one
// victim is contacted synchronously wherever it sits, paying any WAN
// round trip in the idle path.
func (n *Node) trySteal() (jobMsg, bool) {
	d := n.members.nextSteal(n.stealer.eng, n.monotonicSeconds())
	if d.HasAsync {
		go n.wanSteal(d.Async.ID)
	}
	if !d.HasSync {
		return jobMsg{}, false
	}
	bucket, timeout, kind := metrics.Intra, n.cfg.LocalStealTimeout, "local"
	if d.SyncWide {
		bucket, timeout, kind = metrics.Inter, n.cfg.WANStealTimeout, "wan"
	}
	n.enterState(int(bucket))
	gotJob := n.stealFrom(d.Sync.ID, timeout, kind)
	n.stealer.eng.SyncDone(gotJob)
	n.enterState(stateIdle)
	if !gotJob {
		return jobMsg{}, false
	}
	// The reply handler adopted the job through the inbox (ownership
	// transfers there, never through a channel a timed-out waiter may
	// have abandoned); take the freshest entry.
	return n.popNewest()
}

// wanSteal runs the asynchronous wide-area steal: a successful job is
// adopted by the reply handler; here we only settle the engine's
// async slot CRS keys on.
func (n *Node) wanSteal(victim NodeID) {
	got := n.stealFrom(victim, n.cfg.WANStealTimeout, "wan_async")
	n.stealer.eng.AsyncDone(got)
	n.wakeUp()
}

// stealFrom sends one steal request and waits for the reply; it
// reports whether the victim granted a job (which the reply handler
// already adopted into the inbox). kind labels the attempt for the
// round-trip instruments ("local", "wan", "wan_async").
func (n *Node) stealFrom(victim NodeID, timeout time.Duration, kind string) bool {
	start := time.Now()
	got := func() bool {
		seq, ch := n.stealer.addWaiter()
		defer n.stealer.dropWaiter(seq)
		if err := wire.Send(n.wc, satinEP(victim), stealMsg{Thief: n.cfg.ID, Cluster: n.cfg.Cluster, Seq: seq}); err != nil {
			return false
		}
		select {
		case g := <-ch:
			return g
		case <-time.After(timeout):
			return false
		case <-n.stopCh:
			return false
		}
	}()
	obsStealRTT[kind].Observe(time.Since(start).Seconds())
	if got {
		obsStealOK[kind].Inc()
	} else {
		obsStealFail[kind].Inc()
	}
	return got
}

// onSteal serves a thief: take the oldest job (biggest subtree) off
// the top of the deque and ship it. The deque steal is lock-free —
// this handler never touches the worker's push/pop path; n.mu is
// taken only to read lifecycle flags and update job ownership.
func (n *Node) onSteal(sm stealMsg, _ wire.Meta) {
	reply := stealReplyMsg{Seq: sm.Seq}
	n.mu.Lock()
	serving := !n.stopped && !n.leaving
	n.mu.Unlock()
	if serving && !n.members.isDeparted(sm.Thief) {
		j, ok := n.jobs.Steal()
		if !ok {
			// Nothing on the deque: serve inbox arrivals the worker has
			// not drained yet (it may be pinned inside a long task).
			j, ok = n.inbox.steal()
		}
		if ok {
			reply.HasJob = true
			reply.Job = j
			if j.Owner == n.cfg.ID {
				n.setHolder(j.ID, sm.Thief)
			}
		}
	}
	if reply.HasJob && reply.Job.Owner != n.cfg.ID && reply.Job.Owner != sm.Thief {
		// Tell the third-party owner immediately where its job went:
		// if the thief dies before its own notification, the owner
		// must still know whom to watch for recomputation.
		wire.Send(n.wc, satinEP(reply.Job.Owner), holdingMsg{ID: reply.Job.ID, Holder: sm.Thief})
	}
	if err := wire.Send(n.wc, satinEP(sm.Thief), reply); err != nil {
		// Task type not registered for gob (or the thief is gone): hand
		// the job back to ourselves and fail the steal.
		if reply.HasJob {
			if reply.Job.Owner == n.cfg.ID {
				n.setHolder(reply.Job.ID, n.cfg.ID)
			}
			n.inbox.add(reply.Job)
			n.wakeUp()
		}
		wire.Send(n.wc, satinEP(sm.Thief), stealReplyMsg{Seq: sm.Seq})
	}
}

func (n *Node) onStealReply(sr stealReplyMsg, m wire.Meta) {
	n.countInterBytes(m)
	if sr.HasJob {
		// Adopt the job here, whatever happened to the waiter: a
		// reply that lost a race with the steal timeout must not
		// lose the job (its owner already recorded us as holder).
		n.mu.Lock()
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			wire.Send(n.wc, satinEP(sr.Job.Owner), returnJobMsg{Job: sr.Job})
		} else {
			n.inbox.add(sr.Job)
			n.noteHolding(sr.Job)
			n.wakeUp()
		}
	}
	n.stealer.replyArrived(sr.Seq, sr.HasJob)
}
