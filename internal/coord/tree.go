package coord

// The tree protocol: everything a sub-coordinator and the root say to
// each other around the policy in shard.go, and what the subs do when
// the root stops answering. A sub sends one ClusterSummary per period;
// the root answers each with a SummaryAck carrying its reset epoch and
// requirements snapshot, and pushes a ShardReset to every sub right
// after it acted. A sub that goes failoverAfter periods without an ack
// stands for election: the lowest live candidate wins and seeds a new
// root from the snapshot it cached.
//
// The machine is runtime-independent. Time enters only as "a period
// elapsed" (SubLink.Period, RootKernel.TickTree), the network only as
// "send accepted or refused" (Sent), "ack arrived" (Ack) and "reset
// pushed" (Pushed), membership only as the candidate list handed to
// Stands. internal/des delivers those from virtual-time closures, adapt
// from wire handlers and a ticker; neither keeps a counter or compares
// an epoch itself.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// SummaryAck is the root's receipt for one ClusterSummary. Its epoch is
// how subs learn to drop pre-action reports and how a restarted sub
// catches back up; its requirements snapshot is the failover seed the
// subs cache.
type SummaryAck struct {
	Cluster core.ClusterID
	Seq     uint64
	Epoch   uint64
	Req     ReqState
}

// ShardReset is the root's eager post-action push: acting invalidates
// every sub's pending reports, and waiting a full period for the next
// ack would let one stale summary round through.
type ShardReset struct {
	Epoch uint64
	Req   ReqState
}

// failoverAfter is how many consecutive unacknowledged summary periods
// a sub-coordinator tolerates before it stands for election.
const failoverAfter = 2

// SubLink is a sub-coordinator's end of the tree protocol, wrapped
// around the cluster's SubKernel (whose Report, ObserveStream and Forget
// it passes through). Safe for concurrent use.
type SubLink struct {
	*SubKernel

	mu      sync.Mutex // guards the fields below (not the SubKernel's, which has its own); taken first
	missed  int        // consecutive periods without an ack
	pending bool       // summary handed to the network, ack not yet seen
	epoch   uint64     // root reset epoch adopted so far
	req     ReqState   // root requirements as of the last ack or reset
}

// NewSubLink builds one cluster's sub-coordinator state; proposalCap
// and weights are NewSubKernel's. A restarted sub is a new SubLink: it
// re-learns epoch and requirements from the first ack.
func NewSubLink(cluster core.ClusterID, proposalCap int, weights core.BadnessWeights) *SubLink {
	return &SubLink{SubKernel: NewSubKernel(cluster, proposalCap, weights)}
}

// Period runs when a period elapsed: a summary still unacknowledged
// from the period before counts as a miss, and the cluster's next
// summary comes back stamped with the epoch and requirements the sub
// last heard from the root.
func (l *SubLink) Period(now float64, live []core.NodeID) ClusterSummary {
	l.mu.Lock()
	if l.pending {
		l.missed++
		l.pending = false
	}
	epoch, req := l.epoch, l.req
	l.mu.Unlock()
	sum := l.Summarize(now, live)
	sum.Epoch, sum.Req = epoch, req
	return sum
}

// Sent tells the sub what the network did with the period's summary: a
// refused send (the root endpoint is gone) is a miss at once, an
// accepted one waits for its ack. It reports whether the root has now
// been silent long enough for the sub to stand for election.
func (l *SubLink) Sent(accepted bool) (starved bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if accepted {
		l.pending = true
	} else {
		l.missed++
	}
	return l.missed >= failoverAfter
}

// Ack takes the root's receipt: the silence ends, and the ack's epoch
// and requirements are adopted.
func (l *SubLink) Ack(a SummaryAck) {
	if a.Cluster != l.cluster {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = false
	l.missed = 0
	l.adopt(a.Epoch, a.Req)
}

// Pushed takes the root's post-action reset.
func (l *SubLink) Pushed(r ShardReset) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adopt(r.Epoch, r.Req)
}

// adopt caches the root's requirements and, when the epoch is newer
// than the sub's, drops the stored reports and the smoothing window:
// the root acted, so they describe the pre-action world. An older epoch
// (a late ack) never takes the sub back. The cache keeps the ack's
// slices, not a copy: where no wire sits in between (the DES) they are
// the root's own snapshot, which nobody writes after it was handed out.
func (l *SubLink) adopt(epoch uint64, req ReqState) {
	l.req = req
	if epoch > l.epoch {
		l.epoch = epoch
		l.Reset()
	}
}

// Stands applies the election rule to one membership view — the lowest
// live candidate wins — and reports whether this sub is the winner. A
// loser stands down. With no candidate there is no election and nothing
// changes.
func (l *SubLink) Stands(candidates []core.ClusterID) bool {
	if len(candidates) == 0 {
		return false
	}
	if slices.Min(candidates) == l.cluster {
		return true
	}
	l.StandDown()
	return false
}

// StandDown clears the silence count: somebody else is (or is about to
// be) root, so the sub gives it failoverAfter periods to start
// acknowledging before it looks again. A winner whose claim on the root
// role was refused — a rival got there first — stands down too.
func (l *SubLink) StandDown() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.missed = 0
	l.pending = false
}

// Promote builds the successor root on the winning sub: a fresh
// RootKernel seeded with the requirements this sub cached (the other
// subs' caches union-merge in with their next summaries; blacklists are
// monotone, so the union is never wrong) and started at the epoch the
// sub had adopted, so the subs' summaries are not rejected as stale.
func (l *SubLink) Promote(cfg Config, act Actuator) (*RootKernel, error) {
	rk, err := NewRoot(cfg, act)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	req, epoch := l.req, l.epoch
	l.missed = 0
	l.pending = false
	l.mu.Unlock()
	rk.adoptReqState(req)
	rk.resetEpoch = epoch
	act.Annotate(fmt.Sprintf("root coordinator failover: cluster %s elected (epoch %d)", l.cluster, epoch))
	return rk, nil
}

// Receive is the root's side of one summary: ingest it and answer with
// the receipt — for a stale-epoch summary too, because the ack's epoch
// is how a lagging or restarted sub catches up. The ack shares the
// root's requirements snapshot: its cost is what the root learned since
// the last one, not the size of what it knows.
func (rk *RootKernel) Receive(sum ClusterSummary) SummaryAck {
	rk.Ingest(sum)
	return SummaryAck{
		Cluster: sum.Cluster,
		Seq:     sum.Seq,
		Epoch:   rk.epoch(),
		Req:     rk.ReqState(),
	}
}

// TickTree is Tick for a root whose subs sit behind a network: when the
// tick acted it also returns the reset the driver must push to every
// sub, so pre-action reports die everywhere.
func (rk *RootKernel) TickTree(now float64, liveClusters []core.ClusterID, totalNodes int) (PeriodRecord, *ShardReset) {
	before := rk.epoch()
	rec := rk.Tick(now, liveClusters, totalNodes)
	if after := rk.epoch(); after != before {
		return rec, &ShardReset{Epoch: after, Req: rk.ReqState()}
	}
	return rec, nil
}
