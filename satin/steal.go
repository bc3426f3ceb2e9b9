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
	// stealRTTBuckets run from 25µs doubling to 6.5s: a local steal over
	// the default 200µs LAN takes about 500µs, inside the first bucket of
	// obs.LatencyBuckets, and a saturated WAN attempt runs into its
	// three-second timeout.
	stealRTTBuckets = obs.ExpBuckets(25e-6, 2, 19)

	obsStealRTT = map[string]*obs.Histogram{
		"local":     obs.Default.Histogram("satin/steal_rtt/local", stealRTTBuckets),
		"wan":       obs.Default.Histogram("satin/steal_rtt/wan", stealRTTBuckets),
		"wan_async": obs.Default.Histogram("satin/steal_rtt/wan_async", stealRTTBuckets),
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

// replyWait is what a goroutine blocks on while its steal request is
// out: a one-slot reply channel and a timeout. The worker keeps one
// for every synchronous attempt and every park (the two never
// overlap); an asynchronous wide-area attempt brings its own.
type replyWait struct {
	reply chan bool
	timer *time.Timer // stopped and drained between waits
}

func newReplyWait() *replyWait { return &replyWait{reply: make(chan bool, 1)} }

// arm starts the timeout and returns its channel. Every arm is paired
// with a disarm before the next.
func (w *replyWait) arm(d time.Duration) <-chan time.Time {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	return w.timer.C
}

// disarm stops the timer and takes a tick nobody received. A tick
// that fires while Stop runs can still land afterwards and end the
// next wait early, which costs that wait's caller one retry.
func (w *replyWait) disarm() {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

// addWaiter routes the reply to a new request to ch.
func (s *stealer) addWaiter(ch chan bool) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	s.waiters[s.nextSeq] = ch
	return s.nextSeq
}

// dropWaiter ends the request's claim on ch and empties it. Replies
// are sent under the same lock, so once this returns none for seq can
// reach the channel: the next request to use it sees only its own.
func (s *stealer) dropWaiter(seq uint64, ch chan bool) {
	s.mu.Lock()
	delete(s.waiters, seq)
	select {
	case <-ch:
	default:
	}
	s.mu.Unlock()
}

func (s *stealer) replyArrived(seq uint64, got bool) {
	s.mu.Lock()
	if ch := s.waiters[seq]; ch != nil {
		select {
		case ch <- got:
		default:
		}
	}
	s.mu.Unlock()
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
		n.wg.Add(1) // from the worker, which holds a count itself
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
	gotJob := n.stealFrom(d.Sync.ID, timeout, kind, n.wait)
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
	defer n.wg.Done()
	got := n.stealFrom(victim, n.cfg.WANStealTimeout, "wan_async", newReplyWait())
	n.stealer.eng.AsyncDone(got)
	n.wakeUp()
}

// stealFrom sends one steal request and waits for the reply; it
// reports whether the victim granted a job (which the reply handler
// already adopted into the inbox). kind labels the attempt for the
// round-trip instruments ("local", "wan", "wan_async"); w is the
// caller's to block on.
func (n *Node) stealFrom(victim NodeID, timeout time.Duration, kind string, w *replyWait) bool {
	start := time.Now()
	got := false
	seq := n.stealer.addWaiter(w.reply)
	if err := wire.Send(n.wc, satinEP(victim), stealMsg{Thief: n.cfg.ID, Cluster: n.cfg.Cluster, Seq: seq}); err == nil {
		select {
		case got = <-w.reply:
		case <-w.arm(timeout):
		case <-n.stopCh:
		}
		w.disarm()
	}
	n.stealer.dropWaiter(seq, w.reply)
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
// taken only to update job ownership.
func (n *Node) onSteal(sm stealMsg, _ wire.Meta) {
	if n.stopped.Load() {
		return // a dead node does not answer; the thief's endpoint may be gone too
	}
	reply := stealReplyMsg{Seq: sm.Seq}
	if !n.leaving.Load() && !n.members.isDeparted(sm.Thief) {
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
		if n.stopped.Load() {
			wire.Send(n.wc, satinEP(sr.Job.Owner), returnJobMsg{Job: sr.Job})
		} else {
			n.inbox.add(sr.Job)
			n.noteHolding(sr.Job)
			n.wakeUp()
		}
	}
	n.stealer.replyArrived(sr.Seq, sr.HasJob)
}
