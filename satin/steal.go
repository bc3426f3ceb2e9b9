package satin

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/steal"
	"repro/internal/transport/wire"
)

// stealKind is a steal attempt's kind, which names its instruments.
type stealKind int

const (
	stealLocal    stealKind = iota // the synchronous same-cluster attempt
	stealWAN                       // a synchronous cross-cluster attempt (StealRandom pays these in the idle path)
	stealWANAsync                  // the latency-hidden CRS wide-area slot
	numStealKinds
)

// stealRTTBuckets run from 25µs doubling to 6.5s: a local steal over
// the default 200µs LAN takes about 500µs, inside the first bucket of
// obs.LatencyBuckets, and a saturated WAN attempt runs into its
// three-second timeout.
var stealRTTBuckets = obs.ExpBuckets(25e-6, 2, 19)

// stealInstruments time an attempt's full request/reply round trip,
// including the emulated link, and count its outcome.
type stealInstruments struct {
	rtt      *obs.Histogram
	ok, fail *obs.Counter
}

// stealObs holds each kind's instruments, indexed by the kind.
var stealObs = func() (in [numStealKinds]stealInstruments) {
	for k, name := range [numStealKinds]string{"local", "wan", "wan_async"} {
		in[k].rtt = obs.Default.Histogram("satin/steal_rtt/"+name, stealRTTBuckets)
		in[k].ok = obs.Default.Counter("satin/steal_ok/" + name)
		in[k].fail = obs.Default.Counter("satin/steal_fail/" + name)
	}
	return in
}()

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
// for its synchronous attempt and every park (a wait uses the timer
// from arm to disarm, and the worker waits on one thing at a time); an
// asynchronous wide-area attempt brings its own.
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

// stealAttempt is the worker's one outstanding synchronous steal
// request, the slot steal.Engine.syncOut models. It is state, not a
// blocking call: a wake-up interrupts the wait and sends the worker
// back to its frame and its inbox while the request stays out, and the
// next findWork resumes this attempt instead of sending another. The
// reply or the deadline settles it, once.
type stealAttempt struct {
	pending  bool
	seq      uint64
	start    time.Time
	deadline time.Time
	bucket   metrics.Bucket // where the wait is booked: Intra, Inter for a wide victim
	kind     stealKind      // stealLocal or stealWAN
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

// finish ends a request: the waiter goes, the round trip is booked
// under its kind as a grant or a refusal, the engine's slot frees, and
// the engine publishes its counts, so the steal/* series stay current
// per attempt.
func (s *stealer) finish(seq uint64, ch chan bool, kind stealKind, start time.Time, got bool) {
	s.dropWaiter(seq, ch)
	in := &stealObs[kind]
	in.rtt.Observe(time.Since(start).Seconds())
	if got {
		in.ok.Inc()
	} else {
		in.fail.Inc()
	}
	if kind == stealWANAsync {
		s.eng.AsyncDone(got)
	} else {
		s.eng.SyncDone(got)
	}
	s.eng.Publish()
}

// findWork is one step of the idle path, shared by the worker loop and
// Sync: wait on the synchronous steal attempt (starting one if none is
// out) and return the job it brought, or nothing — after a refusal and
// the fallback park, or at once when a wake-up interrupted the wait,
// in which case the caller has a result or an inbox arrival to look at
// and the attempt stays out for the next call. Time in the wait is
// Intra (Inter for StealRandom's wide victim); parks are Idle.
func (n *Node) findWork() (*jobMsg, bool) {
	a := &n.attempt
	// A refusal earns a park only when it answers a request sent in this
	// call and no wake-up overtook it.
	park := !a.pending
	if park && !n.startSteal() {
		n.waitForWork(2 * time.Millisecond) // nobody to ask
		return nil, false
	}
	n.enterState(int(a.bucket))
	got, settled := false, true
	select {
	case got = <-n.wait.reply:
	case <-n.wait.arm(time.Until(a.deadline)):
	case <-n.stopCh:
	case <-n.wake:
		// What the wake-up announced is the caller's to look into before
		// this worker blocks again; if it was the victim's wake frame,
		// sent while its refusal was on its way, the refusal is stale. A
		// granted job wakes the worker too (onStealReply): its reply is
		// in the channel by then, and settles the attempt now.
		park = false
		select {
		case got = <-n.wait.reply:
		default:
			settled = false
		}
	}
	n.wait.disarm()
	n.enterState(stateIdle)
	if settled {
		n.settleSteal(got)
	}
	switch {
	case got:
		// The reply handler adopted the job through the inbox (ownership
		// transfers there, never through a channel a waiter may have
		// left); take the freshest entry.
		return n.popNewest()
	case park:
		// Turned away. The victim remembers it and sends a wake frame
		// when it next has work; the timer is the fallback (another
		// victim, a lost frame, a victim that remembered a later thief).
		n.waitForWork(2 * time.Millisecond)
	}
	return nil, false
}

// startSteal runs one round of the steal policy: the engine picks
// victims from the membership view, this node contacts them. Under CRS
// the wide-area victim is contacted asynchronously (latency hidden
// behind the synchronous local attempt); under StealRandom the one
// victim is contacted synchronously wherever it sits, paying any WAN
// round trip in the idle path. It reports whether a synchronous
// request went out (n.attempt is then pending).
func (n *Node) startSteal() bool {
	d := n.members.nextSteal(n.stealer.eng, n.monotonicSeconds())
	n.stealer.eng.Publish()
	if d.HasAsync {
		n.wg.Add(1) // from the worker, which holds a count itself
		go n.wanSteal(d.Async.ID)
	}
	if !d.HasSync {
		return false
	}
	a := &n.attempt
	timeout := n.cfg.LocalStealTimeout
	a.bucket, a.kind = metrics.Intra, stealLocal
	if d.SyncWide {
		timeout = n.cfg.WANStealTimeout
		a.bucket, a.kind = metrics.Inter, stealWAN
	}
	a.start = time.Now()
	a.deadline = a.start.Add(timeout)
	a.seq = n.stealer.addWaiter(n.wait.reply)
	a.pending = true
	if err := wire.Send(n.wc, satinEP(d.Sync.ID), stealMsg{Thief: n.cfg.ID, Cluster: n.cfg.Cluster, Seq: a.seq}); err != nil {
		n.settleSteal(false)
		return false
	}
	return true
}

// settleSteal closes the synchronous attempt: the engine's slot frees,
// and the round trip and its outcome are counted.
func (n *Node) settleSteal(got bool) {
	a := &n.attempt
	a.pending = false
	n.stealer.finish(a.seq, n.wait.reply, a.kind, a.start, got)
}

// abandonSteal settles as a miss the attempt a stopping worker leaves
// behind, so that attempts still equal hits plus misses.
func (n *Node) abandonSteal() {
	if n.attempt.pending {
		n.settleSteal(false)
	}
}

// wanSteal runs the asynchronous wide-area steal on its own goroutine,
// which may block for the whole round trip: a granted job is adopted
// by the reply handler; here we only settle the engine's async slot
// CRS keys on.
func (n *Node) wanSteal(victim NodeID) {
	defer n.wg.Done()
	w := newReplyWait()
	start := time.Now()
	got := false
	seq := n.stealer.addWaiter(w.reply)
	if err := wire.Send(n.wc, satinEP(victim), stealMsg{Thief: n.cfg.ID, Cluster: n.cfg.Cluster, Seq: seq}); err == nil {
		select {
		case got = <-w.reply:
		case <-w.arm(n.cfg.WANStealTimeout):
		case <-n.stopCh:
		}
		w.disarm()
	}
	n.stealer.finish(seq, w.reply, stealWANAsync, start, got)
	n.wakeUp()
}

// takeOldest takes the oldest job (biggest subtree) off the top of the
// deque for a thief, or, with nothing there and the worker pinned
// inside a task, an inbox arrival it has not drained yet. An idle
// worker is about to drain the inbox itself: a root taken from under it
// would cost a round trip to move and another to report back.
func (n *Node) takeOldest() (*jobMsg, bool) {
	if j, ok := n.jobs.Steal(); ok {
		return j, true
	}
	if !n.pinned.Load() {
		return nil, false
	}
	return n.inbox.steal()
}

// onSteal serves a thief. The deque steal is lock-free — this handler
// never touches the worker's push/pop path; n.mu is taken only for job
// ownership, which for a spawned job starts here: leaving the node is
// what gives it an ID and a pending entry, holder = the thief.
func (n *Node) onSteal(sm stealMsg, _ wire.Meta) {
	if !n.live() {
		return // a dead node does not answer; the thief's endpoint may be gone too
	}
	defer n.gate.RUnlock()
	thief := satinEP(sm.Thief)
	reply := stealReplyMsg{Seq: sm.Seq}
	if !n.leaving.Load() && !n.members.isDeparted(sm.Thief) {
		j, ok := n.takeOldest()
		if !ok && sm.Cluster == n.cfg.Cluster {
			turnedAway := new(string)
			*turnedAway = thief
			n.hungry.Store(turnedAway)
			// A push between the miss and the store found nobody to
			// wake: look again, so that either it or we see the other.
			if j, ok = n.takeOldest(); ok {
				n.hungry.CompareAndSwap(turnedAway, nil)
			}
		}
		if ok {
			// A copy: a spawned job's record is a slot of its owner's
			// frame, which must stay as the spawn left it.
			reply.HasJob = true
			reply.Job = *j
			if j.Owner == n.cfg.ID {
				if j.ID == 0 {
					reply.Job.ID = n.registerJob(j.Task, j.fut, sm.Thief)
					reply.Job.fut = nil
				} else {
					n.setHolder(j.ID, sm.Thief)
				}
			}
		}
	}
	if reply.HasJob && reply.Job.Owner != n.cfg.ID && reply.Job.Owner != sm.Thief {
		// Tell the third-party owner immediately where its job went:
		// if the thief dies before its own notification, the owner
		// must still know whom to watch for recomputation.
		wire.Send(n.wc, satinEP(reply.Job.Owner), holdingMsg{ID: reply.Job.ID, Holder: sm.Thief})
	}
	if err := wire.Send(n.wc, thief, reply); err != nil {
		// Task type not registered for gob (or the thief is gone): hand
		// the job back to ourselves and fail the steal.
		if reply.HasJob {
			if reply.Job.Owner == n.cfg.ID {
				n.setHolder(reply.Job.ID, n.cfg.ID)
			}
			job := reply.Job
			n.inbox.add(&job)
			n.wakeUp()
		}
		wire.Send(n.wc, thief, stealReplyMsg{Seq: sm.Seq})
	}
}

func (n *Node) onStealReply(sr stealReplyMsg, m wire.Meta) {
	n.countInterBytes(m)
	adopted := sr.HasJob && n.live()
	if adopted {
		// Adopt the job here, whatever happened to the waiter: a reply
		// that lost a race with the steal timeout must not lose the job
		// (its owner already recorded us as holder). A stopped node
		// adopts nothing and says nothing; the owner recomputes the job
		// when the registry reports this node gone.
		job := sr.Job
		n.inbox.add(&job)
		n.noteHolding(&job)
		n.gate.RUnlock()
	}
	n.stealer.replyArrived(sr.Seq, sr.HasJob)
	if adopted {
		n.wakeUp() // after the reply, so the worker it wakes finds both
	}
}
