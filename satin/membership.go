package satin

import (
	"log"
	"sort"
	"sync"

	"repro/internal/registry"
	"repro/internal/steal"
)

// membershipView is the node's window on the registry: the client
// session, the departed-set that filters late messages from nodes
// already seen leaving or dying, the steal kernel's pre-indexed view
// of the stealable peers, and the node's steal engine. The engine takes
// no lock of its own, so every call into it is made under this lock,
// from the worker and from a wide-area steal's goroutine alike. The
// lock is a leaf in the node's hierarchy — membership methods never
// acquire n.mu (callers holding n.mu may call in here, never the
// reverse).
type membershipView struct {
	mu       sync.Mutex
	reg      *registry.Client
	departed map[NodeID]bool
	view     *steal.View    // rebuilt on registry events, not per steal attempt
	peers    []steal.Member // rebuild's scratch buffer
	eng      *steal.Engine
}

func (v *membershipView) init(cfg *NodeConfig) {
	v.departed = make(map[NodeID]bool)
	v.view = steal.NewView()
	v.eng = steal.New(cfg.StealPolicy, cfg.ID, cfg.Cluster, steal.SeedFor(cfg.Seed, cfg.ID))
}

func (v *membershipView) setClient(reg *registry.Client) {
	v.mu.Lock()
	v.reg = reg
	v.mu.Unlock()
	v.rebuild()
}

func (v *membershipView) client() *registry.Client {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reg
}

func (v *membershipView) isDeparted(id NodeID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.departed[id]
}

func (v *membershipView) markDeparted(id NodeID) {
	v.mu.Lock()
	v.departed[id] = true
	v.mu.Unlock()
}

func (v *membershipView) clearDeparted(id NodeID) {
	v.mu.Lock()
	delete(v.departed, id)
	v.mu.Unlock()
}

// rebuild re-indexes the steal view over the current membership, in ID
// order so a seeded run draws the same victims whatever order the
// registry hands its members out in. Members without a cluster are
// non-workers (the adaptation coordinators' registry sessions): never
// steal from them. The engine itself filters out the calling node.
func (v *membershipView) rebuild() {
	members := v.client().Members()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.peers = v.peers[:0]
	for _, m := range members {
		if m.Cluster != "" {
			v.peers = append(v.peers, steal.Member{ID: m.ID, Cluster: m.Cluster})
		}
	}
	sort.Slice(v.peers, func(i, j int) bool { return v.peers[i].ID < v.peers[j].ID })
	v.view.Rebuild(v.peers)
}

// nextSteal runs one round of the steal policy against the view and
// publishes what the engine counted.
func (v *membershipView) nextSteal(now float64) steal.Directive {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := v.eng.NextView(now, v.view)
	v.eng.Publish()
	return d
}

// settleSteal frees the engine's wide-area (async) or synchronous slot
// and publishes the outcome, so the steal/* series stay current per
// attempt.
func (v *membershipView) settleSteal(async, got bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if async {
		v.eng.AsyncDone(got)
	} else {
		v.eng.SyncDone(got)
	}
	v.eng.Publish()
}

// asyncStalled reports whether the outstanding wide-area steal has
// been in flight longer than threshold.
func (v *membershipView) asyncStalled(now, threshold float64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.AsyncStalled(now, threshold)
}

// eventLoop consumes registry events: the join ack rebuilds the steal
// view over everyone who joined first; deaths trigger recomputation of
// jobs the dead node held; the "leave" signal starts a graceful exit. A
// join that gives up is a crash on arrival: counted, and the node is
// killed (from another goroutine, since Kill waits for this one).
func (n *Node) eventLoop() {
	defer n.wg.Done()
	reg := n.members.client()
	joined, failed := reg.Joined(), reg.Failed()
	for {
		select {
		case <-n.stopCh:
			return
		case <-joined:
			joined, failed = nil, nil
			n.members.rebuild()
		case <-failed:
			obsJoinFailed.Inc()
			log.Printf("satin: %s stopped: %v", n.cfg.ID, reg.Err())
			go n.Kill()
			return
		case ev, ok := <-reg.Events():
			if !ok {
				return
			}
			switch ev.Kind {
			case registry.Joined:
				// A node ID can be reused after its slot is released
				// back to the scheduler: a rejoin clears its departed
				// mark so it can steal again.
				n.members.clearDeparted(ev.Node.ID)
				n.members.rebuild()
			case registry.Died, registry.Left:
				n.members.rebuild()
				n.reclaimFrom(ev.Node.ID)
			case registry.SignalEvent:
				if ev.Signal == "leave" {
					n.leaving.Store(true)
					n.wakeUp()
				}
			}
		}
	}
}

// reclaimFrom re-enqueues every pending job the departed node held —
// Satin's orphan recomputation, the one recovery path for a crash and
// a graceful leave alike (a leaver drops the foreign jobs it holds). The
// departed mark goes in BEFORE n.mu is taken, so onHolding's check
// under n.mu can never observe a holder that is about to die without
// the mark being visible.
func (n *Node) reclaimFrom(dead NodeID) {
	if dead == n.cfg.ID {
		return
	}
	n.members.markDeparted(dead)
	n.mu.Lock()
	var reclaimed []*jobMsg
	for id, pj := range n.pending {
		if pj.holder == dead {
			pj.holder = n.cfg.ID
			n.pending[id] = pj
			reclaimed = append(reclaimed, &jobMsg{ID: id, Owner: n.cfg.ID, Task: pj.task})
		}
	}
	n.mu.Unlock()
	if len(reclaimed) > 0 {
		for _, j := range reclaimed {
			n.inbox.add(j)
		}
		n.wakeUp()
	}
}
