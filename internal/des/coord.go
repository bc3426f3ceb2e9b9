package des

import (
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/sched"
)

// coordinatorTick is the simulator's side of the adaptation loop: it
// re-arms the timer, hands the live set to the shared coord.Kernel
// (which owns the whole Figure-2 policy — smoothing, deciding, learning,
// acting through simActuator), and records the period.
func (s *Sim) coordinatorTick() {
	if s.done {
		return
	}
	defer func() {
		if !s.done {
			s.k.Post(s.p.Mon.Period, s.coordinatorTick)
		}
	}()
	live := make([]core.NodeID, 0, len(s.order))
	for _, n := range s.order {
		live = append(live, n.id)
	}
	if s.stream != nil {
		s.kern.ObserveStream(s.takeStreamObs())
	}
	rec := s.kern.Tick(float64(s.k.Now()), live)
	s.res.Periods = append(s.res.Periods, rec)
	if s.p.Observe != nil {
		perCluster := make(map[core.ClusterID]int)
		for _, n := range s.order {
			perCluster[n.cluster]++
		}
		s.p.Observe(rec, s.kern.Requirements(), perCluster)
	}
}

// simActuator applies the kernel's effects inside the simulation. It
// also implements coord.Migrator: the simulated Zorilla pool can rank
// idle resources by application-specific speed, which enables the
// kernel's opportunistic migration.
type simActuator struct{ s *Sim }

// Provision asks the scheduler for count nodes, preferring the clusters
// the application already occupies (locality) and excluding everything
// the veto (the learned requirements) rejects.
func (a *simActuator) Provision(count int, minBandwidth float64, veto coord.Veto) int {
	s := a.s
	per := make(map[core.ClusterID]int)
	for _, n := range s.order {
		per[n.cluster]++
	}
	// The learned minimum-bandwidth requirement travels to the
	// scheduler: clusters with insufficient uplinks are never handed
	// out, even ones the application has not tried yet.
	refs := s.pool.RequestBandwidth(count, sched.LocalityOrder(per), veto, minBandwidth)
	for _, ref := range refs {
		s.addNode(ref, false)
	}
	return len(refs)
}

// ProvisionFrom is Provision restricted to one cluster (migration
// target chosen by the kernel).
func (a *simActuator) ProvisionFrom(cluster core.ClusterID, count int, minBandwidth float64, veto coord.Veto) int {
	s := a.s
	refs := s.pool.RequestBandwidth(count, []core.ClusterID{cluster}, veto, minBandwidth)
	for _, ref := range refs {
		s.addNode(ref, false)
	}
	return len(refs)
}

// BestAvailable exposes the pool's speed ranking of free resources.
func (a *simActuator) BestAvailable(veto coord.Veto) (core.ClusterID, float64, int) {
	return a.s.pool.BestAvailable(veto)
}

// Evict signals the listed nodes to leave. Departure is cheap (Satin's
// malleability), so it applies after one message latency. The master is
// skipped as a second line of defence — the kernel already protects it.
func (a *simActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	s := a.s
	evicted := make([]core.NodeID, 0, len(victims))
	for _, id := range victims {
		n, ok := s.nodes[id]
		if !ok || n.gone() || n == s.master {
			continue
		}
		lat := s.net.Latency(s.coordClst, n.cluster)
		node := n
		s.k.Post(lat, func() {
			if !s.done {
				s.leave(node)
			}
		})
		evicted = append(evicted, id)
	}
	return evicted
}

// ObservedBandwidth is the grid monitoring service's view of a
// cluster's access link (the NWS-style alternative the paper names),
// which sees the achieved link rate; 0 when the link was never
// exercised.
func (a *simActuator) ObservedBandwidth(c core.ClusterID) float64 {
	if up := a.s.net.Uplink(c); up != nil {
		return up.ObservedBandwidth()
	}
	return 0
}

func (a *simActuator) Annotate(label string) { a.s.annotate(label) }

// ClusterNodes enumerates a cluster's live participants — the root
// kernel's whole-cluster eviction asks the runtime for the roster
// because the root deliberately holds no per-node state.
func (a *simActuator) ClusterNodes(c core.ClusterID) []core.NodeID {
	var out []core.NodeID
	for _, n := range a.s.order {
		if n.cluster == c {
			out = append(out, n.id)
		}
	}
	return out
}

var (
	_ coord.Actuator     = (*simActuator)(nil)
	_ coord.Migrator     = (*simActuator)(nil)
	_ coord.RootActuator = (*simActuator)(nil)
)
