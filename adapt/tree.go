package adapt

import (
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport/wire"
)

// The live driver of the coordinator tree. The protocol — acks, resets,
// missed-ack counting, election, successor seeding — is coord's tree.go;
// this file gives it endpoints and a clock, and moves its frames. An
// ack or a reset it sends carries the root kernel's shared requirements
// snapshot; the wire only reads it, and what a sub decodes is its own.

// loop is the tree's clock: once per period every sub-coordinator
// summarizes, in cluster order, and the root decides as soon as the
// round has arrived — a quarter period later at the latest — so it sees
// the round just sent, whole, rather than half of it in flight (the DES
// keeps the same order, a second apart). The tree's members still talk
// only through wire frames; sharing a clock and a registry session is a
// property of this deployment, where they share a process.
func (c *Coordinator) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case ev := <-c.reg.Events():
			if ev.Kind == registry.Joined && ev.Node.Cluster != "" {
				// A worker in a cluster nobody covers yet: give it a
				// sub-coordinator before its first report is due.
				c.ensureSub(ev.Node.Cluster)
			}
		case <-ticker.C:
			members := c.reg.Members()
			clusters := make([]ClusterID, 0, len(c.subs))
			for cl := range c.subs {
				clusters = append(clusters, cl)
			}
			sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
			round := c.MessagesReceived()
			for _, cl := range clusters {
				if c.subs[cl].tick(members) {
					round++
				}
			}
			late := time.After(c.cfg.Period / 4)
		arrive:
			for c.MessagesReceived() < round {
				select {
				case <-c.stop:
					return
				case <-c.arrived:
				case <-late:
					break arrive
				}
			}
			c.root.tick(members) // a successor, if a sub just promoted one
		}
	}
}

// root is one incarnation of the root coordinator: the claim on the
// coordinator endpoint and the root kernel. It is also the kernel's
// actuator. It deliberately does not implement coord.Migrator — the real
// scheduler cannot rank idle resources by application-specific speed.
type root struct {
	c    *Coordinator
	kern *coord.RootKernel
	wc   *wire.Conn

	mu   sync.Mutex           // serializes tick, onSummary and kill
	subs map[ClusterID]string // endpoints summaries came from: where resets go
	dead bool
}

// startRoot brings up a root incarnation: the first one (seed nil) or
// the successor an elected sub promotes from its cached state. Claiming
// the endpoint doubles as the election lock — the fabric rejects a
// second claimant.
func (c *Coordinator) startRoot(seed *coord.SubLink) error {
	kcfg, err := c.kernelConfig()
	if err != nil {
		return err
	}
	ep, err := c.f.Endpoint(EndpointName)
	if err != nil {
		return err
	}
	r := &root{c: c, wc: wire.New(ep), subs: make(map[ClusterID]string)}
	if seed == nil {
		r.kern, err = coord.NewRoot(kcfg, r)
	} else {
		r.kern, err = seed.Promote(kcfg, r)
	}
	if err != nil {
		r.wc.Close()
		return err
	}
	c.mu.Lock()
	c.root = r
	protected := append([]NodeID(nil), c.cfg.Protected...)
	c.mu.Unlock()
	r.kern.SetProtected(protected...)
	wire.Handle(r.wc, r.onSummary)
	return nil
}

// kill ends this incarnation the way a crash looks from outside: the
// endpoint vanishes. Idempotent.
func (r *root) kill() {
	r.mu.Lock()
	was := r.dead
	r.dead = true
	r.mu.Unlock()
	if !was {
		// Outside the lock: on TCP, Close waits for the endpoint's read
		// loop, which may sit in onSummary waiting for r.mu.
		r.wc.Close()
	}
}

// onSummary is the root's ingestion path; the receipt goes straight
// back to the sending sub.
func (r *root) onSummary(sum coord.ClusterSummary, m wire.Meta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return
	}
	ack := r.kern.Receive(sum)
	r.subs[sum.Cluster] = m.From
	if err := wire.Send(r.wc, m.From, ack); err != nil {
		// The sub will count a miss; leave the trace on this side too.
		obs.Default.Counter("adapt/ack_send_failures").Inc()
	}
	c := r.c
	c.mu.Lock()
	c.messages++
	c.mu.Unlock()
	select {
	case c.arrived <- struct{}{}: // the clock may be waiting for this round
	default:
	}
}

// tick is the root's period: census the workers per cluster, run the
// O(clusters) root kernel, log the period, and push the post-action
// reset to every sub when the tick acted.
func (r *root) tick(members []registry.NodeInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return // adaptation is paused until the subs elect a successor
	}
	c := r.c
	workers := make(map[ClusterID]bool)
	total := 0
	for _, m := range members {
		if m.Cluster != "" {
			workers[m.Cluster] = true
			total++
		}
	}
	live := make([]ClusterID, 0, len(workers))
	for cl := range workers {
		live = append(live, cl)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })

	rec, rst := r.kern.TickTree(time.Since(c.start).Seconds(), live, total)
	c.mu.Lock()
	c.history = append(c.history, rec)
	c.mu.Unlock()
	if c.cfg.Observer != nil {
		c.cfg.Observer(rec)
	}
	if rst != nil {
		r.pushReset(*rst)
	}
}

func (r *root) pushReset(rst coord.ShardReset) {
	for _, ep := range r.subs {
		if err := wire.Send(r.wc, ep, rst); err != nil {
			// The sub keeps summarizing pre-action reports until the next
			// ack's epoch reaches it.
			obs.Default.Counter("adapt/reset_send_failures").Inc()
		}
	}
}

func (r *root) Provision(n int, minBandwidth float64, veto coord.Veto) int {
	got := r.c.prov.Provision(n, minBandwidth, veto)
	if got > 0 {
		obs.Default.Counter("adapt/provisioned").Add(uint64(got))
	}
	return got
}

// Evict signals each victim to leave; a node whose signal fails (e.g.
// it already left) is not counted, so the kernel blacklists exactly the
// nodes that were told to go.
func (r *root) Evict(victims []NodeID, reason string) []NodeID {
	evicted := make([]NodeID, 0, len(victims))
	for _, id := range victims {
		if err := r.c.reg.Signal(id, "leave"); err != nil {
			continue
		}
		evicted = append(evicted, id)
	}
	if len(evicted) > 0 {
		obs.Default.Counter("adapt/evicted").Add(uint64(len(evicted)))
	}
	return evicted
}

// ObservedBandwidth returns 0: the real deployment has no NWS-style
// link monitor, so the kernel falls back to the achieved per-report
// throughput (the capacity-preferred order is the kernel's).
func (r *root) ObservedBandwidth(ClusterID) float64 { return 0 }

func (r *root) Annotate(label string) {
	c := r.c
	c.mu.Lock()
	c.annotations = append(c.annotations, Annotation{
		Time: time.Since(c.start).Seconds(), Label: label,
	})
	c.mu.Unlock()
}

// ClusterNodes enumerates a cluster's live workers from the registry —
// whole-cluster eviction asks the runtime for the roster because the
// root kernel holds no per-node state.
func (r *root) ClusterNodes(cl ClusterID) []NodeID {
	var out []NodeID
	for _, m := range r.c.reg.Members() {
		if m.Cluster == cl {
			out = append(out, m.ID)
		}
	}
	return out
}

var (
	_ coord.Actuator     = (*root)(nil)
	_ coord.RootActuator = (*root)(nil)
)

// sub is one cluster's sub-coordinator, the paper's §7 answer to the
// coordinator becoming a bottleneck: the cluster's nodes report to its
// endpoint, one ClusterSummary per period travels on to the root, and
// it takes part in root failover.
type sub struct {
	c       *Coordinator
	cluster ClusterID
	link    *coord.SubLink
	wc      *wire.Conn
}

// ensureSub starts the cluster's sub-coordinator unless it has one.
// Only Start and the loop goroutine call it. A failure leaves the
// cluster's reports with nowhere to go (the nodes count and log that).
func (c *Coordinator) ensureSub(cl ClusterID) {
	if c.subs[cl] != nil {
		return
	}
	ep, err := c.f.Endpoint(SubEndpointName(cl))
	if err != nil {
		obs.Default.Counter("adapt/sub_start_failures").Inc()
		log.Printf("adapt: sub-coordinator of %s did not start: %v", cl, err)
		return
	}
	s := &sub{
		c:       c,
		cluster: cl,
		// No proposal cap: the root ranks every reporting node, exactly
		// as the in-process coord.Kernel does, with its engine's weights.
		link: coord.NewSubLink(cl, 0, core.DefaultConfig().Weights),
		wc:   wire.New(ep),
	}
	wire.Handle(s.wc, func(rep metrics.Report, _ wire.Meta) { s.link.Report(rep) })
	wire.Handle(s.wc, func(a coord.SummaryAck, _ wire.Meta) { s.link.Ack(a) })
	wire.Handle(s.wc, func(rst coord.ShardReset, _ wire.Meta) { s.link.Pushed(rst) })
	c.mu.Lock()
	c.subs[cl] = s
	c.mu.Unlock()
}

// tick runs one sub period: summarize the cluster's reports, hand the
// frame to the wire, and — once the root has been silent too long —
// stand for election. It reports whether the fabric took the summary.
func (s *sub) tick(members []registry.NodeInfo) bool {
	var live []NodeID
	for _, m := range members {
		if m.Cluster == s.cluster {
			live = append(live, m.ID)
		}
	}
	sum := s.link.Period(time.Since(s.c.start).Seconds(), live)
	err := wire.Send(s.wc, EndpointName, sum)
	if err != nil {
		// The root endpoint is gone: the fabric fails the send
		// synchronously. The reports stay in the sub-kernel and ride the
		// first summary a root accepts.
		obs.Default.Counter("adapt/summary_send_failures").Inc()
	}
	if s.link.Sent(err == nil) {
		s.elect(members)
	}
	return err == nil
}

// elect applies the election rule: the candidates are the sub-
// coordinators whose cluster still hosts workers.
func (s *sub) elect(members []registry.NodeInfo) {
	var candidates []ClusterID
	seen := make(map[ClusterID]bool)
	for _, m := range members {
		if s.c.subs[m.Cluster] != nil && !seen[m.Cluster] {
			seen[m.Cluster] = true
			candidates = append(candidates, m.Cluster)
		}
	}
	if !s.link.Stands(candidates) {
		return
	}
	if err := s.c.startRoot(s.link); err != nil {
		// The endpoint claim failed: the old root is alive after all, or
		// a rival claimed it first. Either way a root exists — wait for
		// its acks.
		s.link.StandDown()
		obs.Default.Counter("adapt/failover_lost").Inc()
		return
	}
	obs.Default.Counter("adapt/failover_elected").Inc()
}
