package des

import (
	"sort"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
)

// The simulator's driver of the coordinator tree: one coord.SubLink per
// cluster ingests that cluster's reports and condenses each period into
// a ClusterSummary; the root consumes only summaries, so its per-tick
// cost is O(clusters) however many nodes the world holds. The protocol
// (acks, resets, missed-ack counting, election, successor seeding) is
// coord's tree.go; this file moves its messages with network latency in
// virtual time and decides which of them a crash swallows. Messages
// travel as Go values, so a summary's, an ack's and a reset's
// requirements lists are the root's own snapshot slices, shared and
// read-only, all the way into the subs' caches and back.

// desSub is one cluster's sub-coordinator.
type desSub struct {
	cluster core.ClusterID
	link    *coord.SubLink
	crashed bool
}

// desRoot is the root coordinator instance; a failover replaces it
// wholesale, which is what makes "the old root is dead" unambiguous in
// the delivery closures below.
type desRoot struct {
	host    core.ClusterID
	kern    *coord.RootKernel
	crashed bool
}

// sharded reports whether this run drives the sharded tree (then
// s.kern is nil and s.subs/s.root carry the coordination state).
func (s *Sim) sharded() bool { return s.kern == nil }

// subFor lazily creates the sub-coordinator of a cluster the first
// time a node of that cluster appears.
func (s *Sim) subFor(c core.ClusterID) *desSub {
	sub, ok := s.subs[c]
	if !ok {
		sub = &desSub{cluster: c, link: s.newSubLink(c)}
		s.subs[c] = sub
	}
	return sub
}

// newSubLink builds a sub-coordinator's (re)start state; its sub-kernel
// ranks eviction proposals with the root's badness weights.
func (s *Sim) newSubLink(c core.ClusterID) *coord.SubLink {
	return coord.NewSubLink(c, s.p.ProposalCap, coord.Config{Engine: s.p.Adapt}.Weights())
}

// subOrder returns the sub-coordinators' clusters in deterministic
// order.
func (s *Sim) subOrder() []core.ClusterID {
	out := make([]core.ClusterID, 0, len(s.subs))
	for c := range s.subs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// forgetNode routes a departure to whichever kernel holds the node's
// reports.
func (s *Sim) forgetNode(n *simNode) {
	if s.kern != nil {
		s.kern.Forget(n.id)
		return
	}
	if sub, ok := s.subs[n.cluster]; ok {
		sub.link.Forget(n.id)
	}
}

// requirements returns the live coordinator's learned requirements.
func (s *Sim) requirements() *core.Requirements {
	if s.kern != nil {
		return s.kern.Requirements()
	}
	return s.root.kern.Requirements()
}

// syncProtected pushes the protected set to the live root kernel.
func (s *Sim) syncProtected() {
	if s.root == nil {
		return
	}
	if s.master != nil {
		s.root.kern.SetProtected(s.master.id)
	} else {
		s.root.kern.SetProtected()
	}
}

// deliverReport lands one node's report at its cluster's
// sub-coordinator (sharded mode's analogue of the flat kernel's
// Report). Reports sent while the sub is down are lost, exactly as
// messages to a crashed process are.
func (s *Sim) deliverReport(c core.ClusterID, rep metrics.Report) {
	if sub, ok := s.subs[c]; ok && !sub.crashed {
		sub.link.Report(rep)
	}
}

// subsTick runs every sub-coordinator's period: summarize the cluster,
// hand the summary to the network, and — when a sub has gone coord's
// failover threshold of periods without an ack and the root is indeed
// down — hold the election. One recurring event iterates all subs (the
// real subs tick independently; collapsing them keeps the event queue
// small at 10k nodes without changing what the root observes).
func (s *Sim) subsTick() {
	if s.done {
		return
	}
	defer func() {
		if !s.done {
			s.k.Post(s.p.Mon.Period, s.subsTick)
		}
	}()
	// One pass over the live set gives every cluster's census.
	liveBy := make(map[core.ClusterID][]core.NodeID, len(s.subs))
	for _, n := range s.order {
		liveBy[n.cluster] = append(liveBy[n.cluster], n.id)
	}
	// Streaming runs: hand each cluster its local arrival/completion
	// partial; the anchor cluster (where the source emits) additionally
	// snapshots the global backlog. Partials addressed to a crashed sub
	// are lost, exactly as reports to a crashed process are.
	var streamParts map[core.ClusterID]core.StreamObs
	if s.stream != nil {
		streamParts = make(map[core.ClusterID]core.StreamObs, len(s.stream.obsBy)+1)
		for c, o := range s.stream.obsBy {
			streamParts[c] = *o
		}
		s.stream.obsBy = make(map[core.ClusterID]*core.StreamObs)
		anchor := s.coordClst
		if s.master != nil {
			anchor = s.master.cluster
		}
		p := streamParts[anchor]
		p.Backlog = s.stream.backlog()
		streamParts[anchor] = p
	}
	now := float64(s.k.Now())
	anyStarved := false
	for _, c := range s.subOrder() {
		sub := s.subs[c]
		if sub.crashed {
			continue
		}
		if part, ok := streamParts[c]; ok {
			sub.link.ObserveStream(part)
		}
		sum := sub.link.Period(now, liveBy[c])
		rt := s.root
		// A dead root refuses the connection — the real wire layer fails
		// the send synchronously when the root endpoint is gone.
		accepted := rt != nil && !rt.crashed
		if accepted {
			lat := s.net.Latency(c, rt.host)
			s.k.Post(lat, func() {
				if s.done || rt != s.root || rt.crashed {
					return // the root died (or was replaced) in flight
				}
				ack := rt.kern.Receive(sum)
				s.k.Post(lat, func() {
					if s.done || sub.crashed || rt != s.root {
						return
					}
					sub.link.Ack(ack)
				})
			})
		}
		if sub.link.Sent(accepted) {
			anyStarved = true
		}
	}
	if anyStarved && (s.root == nil || s.root.crashed) {
		s.electRoot(liveBy)
	}
}

// electRoot holds the election among the running subs whose cluster
// still hosts nodes. Every sub sees the same view at the same virtual
// instant, so all of them apply the rule at once: the winner's sub
// seeds the successor, every other stands down.
func (s *Sim) electRoot(liveBy map[core.ClusterID][]core.NodeID) {
	var candidates []core.ClusterID
	for _, c := range s.subOrder() {
		if !s.subs[c].crashed && len(liveBy[c]) > 0 {
			candidates = append(candidates, c)
		}
	}
	var winner *desSub
	for _, c := range s.subOrder() {
		if sub := s.subs[c]; sub.link.Stands(candidates) {
			winner = sub
		}
	}
	if winner == nil {
		return // nobody left to elect; a later join re-triggers
	}
	rk, err := winner.link.Promote(s.rootConfig(), &simActuator{s})
	if err != nil {
		panic(err) // config was validated at startup
	}
	s.root = &desRoot{host: winner.cluster, kern: rk}
	s.coordClst = winner.cluster
	s.syncProtected()
}

// rootConfig is the kernel configuration both the initial root and any
// elected successor run.
func (s *Sim) rootConfig() coord.Config {
	cfg := coord.Config{
		Engine:           s.p.Adapt,
		MonitorOnly:      s.p.MonitorOnly,
		DisableBlacklist: s.p.DisableBlacklist,
		Opportunistic:    s.p.Opportunistic,
	}
	if s.p.StreamSLO != nil {
		// Each root instance (initial or elected successor) gets a fresh
		// objective: StreamSLO carries hysteresis state that must not
		// outlive the kernel it advised.
		obj, err := core.NewStreamSLO(*s.p.StreamSLO)
		if err != nil {
			panic(err) // config was validated at startup
		}
		cfg.Objective = obj
	}
	return cfg
}

// rootTick is the sharded run's coordinator tick: consume the latest
// summaries, decide, and deliver the post-action reset down the tree.
// While the root is crashed the timer keeps firing but nothing
// happens — adaptation is paused until the subs elect a successor.
func (s *Sim) rootTick() {
	if s.done {
		return
	}
	defer func() {
		if !s.done {
			s.k.Post(s.p.Mon.Period, s.rootTick)
		}
	}()
	rt := s.root
	if rt == nil || rt.crashed {
		return
	}
	liveBy := make(map[core.ClusterID]int)
	for _, n := range s.order {
		liveBy[n.cluster]++
	}
	liveClusters := make([]core.ClusterID, 0, len(liveBy))
	for c := range liveBy {
		liveClusters = append(liveClusters, c)
	}
	sort.Slice(liveClusters, func(i, j int) bool { return liveClusters[i] < liveClusters[j] })

	rec, rst := rt.kern.TickTree(float64(s.k.Now()), liveClusters, len(s.order))
	s.res.Periods = append(s.res.Periods, rec)
	if s.p.Observe != nil {
		s.p.Observe(rec, rt.kern.Requirements(), liveBy)
	}
	if rst != nil {
		for _, c := range s.subOrder() {
			sub := s.subs[c]
			lat := s.net.Latency(rt.host, c)
			s.k.Post(lat, func() {
				if s.done || sub.crashed || rt != s.root {
					return
				}
				sub.link.Pushed(*rst)
			})
		}
	}
}

// crashRoot kills the root coordinator process. The host cluster's
// nodes keep computing — only coordination stops until failover.
func (s *Sim) crashRoot() {
	if s.root == nil || s.root.crashed {
		return
	}
	s.root.crashed = true
}

// crashSub kills one cluster's sub-coordinator; reports from that
// cluster are lost until the sub restarts after crashDetect with empty
// state (it re-learns the epoch from the first ack).
func (s *Sim) crashSub(c core.ClusterID) {
	sub, ok := s.subs[c]
	if !ok || sub.crashed {
		return
	}
	sub.crashed = true
	s.k.Post(crashDetect, func() {
		if s.done {
			return
		}
		sub.link = s.newSubLink(c)
		sub.crashed = false
	})
}
