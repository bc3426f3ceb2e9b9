// Package chaos is the adversarial test bed for the adaptation loop:
// a fault-injecting transport wrapper, a seeded scenario generator
// usable by both the discrete-event simulator and the live Satin
// runtime, and an invariant checker over the unified coord.PeriodRecord
// log the shared kernel emits in both worlds.
//
// Everything is deterministic from a single seed: the fault transport
// derives one RNG per directed cluster link (seed ^ hash(link)), so a
// link's fault sequence depends only on the seed and the order of
// frames on that link, and a failing scenario reproduces from the seed
// printed in the failure message.
package chaos

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/topo"
	"repro/internal/transport"
)

// Faults describes the disturbance applied to one directed cluster
// link. The zero value means "no fault" and removes the rule.
type Faults struct {
	// Drop is the probability a frame is silently lost.
	Drop float64
	// Duplicate is the probability a frame is delivered twice (the
	// second copy gets its own jitter and follows its original).
	Duplicate float64
	// Delay is added to every frame on the link.
	Delay time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) per
	// frame. Like every delay here it models a slow link, not a
	// reordering one: a frame never overtakes one sent before it
	// between the same two endpoints, as on every real fabric.
	Jitter time.Duration
	// Bandwidth, when positive, serialises payloads through a degraded
	// link of that many bytes/second (on top of whatever the inner
	// fabric models).
	Bandwidth float64
	// Corrupt is the probability a frame is delivered with one payload
	// byte flipped — the receiver's codec must count and survive it.
	Corrupt float64
}

func (f Faults) zero() bool { return f == Faults{} }

// Stats counts what the transport did to traffic, for tests.
type Stats struct {
	Sent        uint64 // frames offered by senders
	Dropped     uint64 // lost to Drop probability
	Duplicated  uint64 // extra copies delivered
	Delayed     uint64 // frames given a non-zero delay
	Partitioned uint64 // frames eaten by a cluster partition
	Crashed     uint64 // frames eaten by a crashed endpoint
	Corrupted   uint64 // copies delivered with a flipped byte
}

// bareName strips the "prefix:" from an endpoint name, so a crashed
// node "fs0/03" blocks both its "satin:fs0/03" and "reg:fs0/03"
// endpoints.
func bareName(ep string) string {
	if i := strings.IndexByte(ep, ':'); i >= 0 {
		return ep[i+1:]
	}
	return ep
}

type linkKey struct{ from, to string } // cluster names; "*" matches any

// FaultTransport wraps a transport.Fabric and injects seeded,
// deterministic faults: drop, duplication, delay, jitter, bandwidth
// degradation, corruption, full cluster partition, and abrupt node
// crash (the node's endpoints go unreachable while the process keeps
// running — the nastiest failure mode a failure detector faces).
// Delayed copies leave in send order per endpoint pair: each pair has
// a queue drained by one timer.
//
// Fault rules are keyed by directed cluster pair; "*" is a wildcard.
// Wildcard rules apply only to inter-cluster (uplink/backbone)
// traffic, so "degrade everything" chaos leaves cluster-internal LANs
// alone, as real wide-area weather does; an exact rule (c, c) faults a
// LAN explicitly.
type FaultTransport struct {
	inner transport.Fabric
	seed  int64

	mu          sync.Mutex
	faults      map[linkKey]Faults
	partitioned map[string]bool
	crashed     map[string]bool
	rngs        map[linkKey]*rand.Rand
	free        map[linkKey]time.Time // degraded-link serialisation
	queues      map[pairKey]*pairQueue
	closed      bool
	stats       Stats
}

// NewFaultTransport wraps inner. Endpoints are placed in clusters by
// the runtime's naming convention (topo.ClusterOf).
func NewFaultTransport(inner transport.Fabric, seed int64) *FaultTransport {
	return &FaultTransport{
		inner:       inner,
		seed:        seed,
		faults:      make(map[linkKey]Faults),
		partitioned: make(map[string]bool),
		crashed:     make(map[string]bool),
		rngs:        make(map[linkKey]*rand.Rand),
		free:        make(map[linkKey]time.Time),
		queues:      make(map[pairKey]*pairQueue),
	}
}

// SetFaults installs (or, for the zero Faults, removes) the rule for
// the directed cluster pair. Use "*" for either side as a wildcard.
func (t *FaultTransport) SetFaults(fromCluster, toCluster string, f Faults) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := linkKey{fromCluster, toCluster}
	if f.zero() {
		delete(t.faults, k)
		return
	}
	t.faults[k] = f
}

// FaultBothWays installs the same rule for traffic entering and
// leaving the cluster (the usual "this site's uplink is sick" shape).
func (t *FaultTransport) FaultBothWays(cluster string, f Faults) {
	t.SetFaults(cluster, "*", f)
	t.SetFaults("*", cluster, f)
}

// ClearFaults removes every probabilistic/delay rule (partitions and
// crashes are separate and stay).
func (t *FaultTransport) ClearFaults() {
	t.mu.Lock()
	t.faults = make(map[linkKey]Faults)
	t.mu.Unlock()
}

// Partition cuts the cluster off from everything outside it: all
// inter-cluster frames to or from it vanish, including registry
// heartbeats, so from the rest of the grid the site looks dead.
// Intra-cluster traffic still flows.
func (t *FaultTransport) Partition(cluster string) {
	t.mu.Lock()
	t.partitioned[cluster] = true
	t.mu.Unlock()
}

// Heal reconnects a partitioned cluster.
func (t *FaultTransport) Heal(cluster string) {
	t.mu.Lock()
	delete(t.partitioned, cluster)
	t.mu.Unlock()
}

// CrashNode makes the named node unreachable: every frame to or from
// any of its endpoints is eaten. The name is the bare node name
// ("fs0/03"), matching endpoints of any prefix ("satin:fs0/03",
// "reg:fs0/03").
func (t *FaultTransport) CrashNode(name string) {
	t.mu.Lock()
	t.crashed[name] = true
	t.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (t *FaultTransport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Close stops all pending delayed deliveries. It does not close the
// inner fabric (the owner does that).
func (t *FaultTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, q := range t.queues {
		q.timer.Stop()
	}
	t.queues = make(map[pairKey]*pairQueue)
}

// Endpoint implements transport.Fabric.
func (t *FaultTransport) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := t.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &faultEP{t: t, inner: ep}, nil
}

// rngFor returns the deterministic RNG of one directed cluster link.
// Seeding with seed ^ fnv(link) makes each link's fault sequence a
// pure function of the scenario seed and that link's own frame order,
// independent of interleaving with other links.
func (t *FaultTransport) rngFor(k linkKey) *rand.Rand {
	if r, ok := t.rngs[k]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(k.from))
	h.Write([]byte{0})
	h.Write([]byte(k.to))
	r := rand.New(rand.NewSource(t.seed ^ int64(h.Sum64())))
	t.rngs[k] = r
	return r
}

// lookup finds the applicable rule. Exact pairs win; wildcards apply
// only to inter-cluster traffic.
func (t *FaultTransport) lookup(cf, ct string) (Faults, linkKey, bool) {
	if f, ok := t.faults[linkKey{cf, ct}]; ok {
		return f, linkKey{cf, ct}, true
	}
	if cf == ct {
		return Faults{}, linkKey{}, false
	}
	for _, k := range []linkKey{{cf, "*"}, {"*", ct}, {"*", "*"}} {
		if f, ok := t.faults[k]; ok {
			return f, k, true
		}
	}
	return Faults{}, linkKey{}, false
}

// delivery is one planned copy of a frame: when to hand it to the
// inner fabric, and whether to flip a payload byte first (flip < 0
// means deliver intact).
type delivery struct {
	delay time.Duration
	flip  int
}

// plan decides, under the lock, what happens to one frame: eaten
// (deliver == nil) or delivered once/twice with per-copy delays and
// corruption.
func (t *FaultTransport) plan(from, to string, size int) (deliver []delivery) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Sent++
	if t.closed {
		return nil
	}
	if t.crashed[bareName(from)] || t.crashed[bareName(to)] {
		t.stats.Crashed++
		return nil
	}
	cf, ct := string(topo.ClusterOf(from)), string(topo.ClusterOf(to))
	if cf != ct && (t.partitioned[cf] || t.partitioned[ct]) {
		t.stats.Partitioned++
		return nil
	}
	f, key, ok := t.lookup(cf, ct)
	if !ok {
		return []delivery{{flip: -1}}
	}
	rng := t.rngFor(key)
	if f.Drop > 0 && rng.Float64() < f.Drop {
		t.stats.Dropped++
		return nil
	}
	corrupt := func() int {
		if f.Corrupt > 0 && size > 0 && rng.Float64() < f.Corrupt {
			t.stats.Corrupted++
			return rng.Intn(size)
		}
		return -1
	}
	d := f.Delay
	if f.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(f.Jitter)))
	}
	if f.Bandwidth > 0 {
		ser := time.Duration(float64(size) / f.Bandwidth * float64(time.Second))
		now := time.Now()
		start := now
		if free, ok := t.free[key]; ok && free.After(start) {
			start = free
		}
		t.free[key] = start.Add(ser)
		d += start.Sub(now) + ser
	}
	deliver = []delivery{{delay: d, flip: corrupt()}}
	if f.Duplicate > 0 && rng.Float64() < f.Duplicate {
		t.stats.Duplicated++
		dd := f.Delay
		if f.Jitter > 0 {
			dd += time.Duration(rng.Int63n(int64(f.Jitter)))
		}
		deliver = append(deliver, delivery{delay: dd, flip: corrupt()})
	}
	if d > 0 || len(deliver) > 1 {
		t.stats.Delayed++
	}
	return deliver
}

type pairKey struct{ from, to string } // endpoint names

// pairQueue holds one endpoint pair's delayed copies in send order. Its
// timer, armed while it is not empty, is the only thing that takes
// copies off it, and only from the head: a copy leaves once it is due
// and every copy ahead of it has left.
type pairQueue struct {
	items []queued
	timer *time.Timer
}

type queued struct {
	due      time.Time
	ep       *faultEP
	to, kind string
	p        []byte
}

// enqueue puts a copy on its pair's queue. It reports false, queueing
// nothing, for a copy with no delay and nothing ahead of it: the caller
// sends that one itself.
func (t *FaultTransport) enqueue(e *faultEP, to, kind string, p []byte, delay time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return true // eaten, as plan eats a frame sent after Close
	}
	k := pairKey{e.inner.Name(), to}
	q := t.queues[k]
	if q == nil {
		if delay <= 0 {
			return false
		}
		q = &pairQueue{}
		t.queues[k] = q
		q.timer = time.AfterFunc(delay, func() { t.drain(k, q) })
	}
	q.items = append(q.items, queued{due: time.Now().Add(delay), ep: e, to: to, kind: kind, p: p})
	return true
}

// drain sends a pair's copies that are due, in order, then re-arms the
// timer for the next one or retires the empty queue. A copy leaves the
// queue only once it has been sent, so a zero-delay Send arriving
// meanwhile queues behind it instead of overtaking it. A copy that
// fails to send is lost silently (the destination died in the
// meantime: exactly the race a real network exhibits).
func (t *FaultTransport) drain(k pairKey, q *pairQueue) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		head := q.items[0]
		if wait := time.Until(head.due); wait > 0 {
			q.timer = time.AfterFunc(wait, func() { t.drain(k, q) })
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		_ = head.ep.send(head.to, head.kind, head.p)
		t.mu.Lock()
		q.items = q.items[1:]
		empty := len(q.items) == 0
		if empty {
			delete(t.queues, k)
		}
		t.mu.Unlock()
		if empty {
			return
		}
	}
}

type faultEP struct {
	t     *FaultTransport
	inner transport.Endpoint
}

func (e *faultEP) Name() string                         { return e.inner.Name() }
func (e *faultEP) SetHandler(h transport.Handler)       { e.inner.SetHandler(h) }
func (e *faultEP) Close() error                         { return e.inner.Close() }
func (e *faultEP) send(to, kind string, p []byte) error { return e.inner.Send(to, kind, p) }

// Send applies the fault plan. A frame the chaos layer eats returns
// nil — from the sender a lossy network is indistinguishable from a
// slow one. A copy with no delay and nothing queued ahead of it goes
// straight to the inner fabric, and the first copy's error is returned.
func (e *faultEP) Send(to, kind string, payload []byte) error {
	plan := e.t.plan(e.inner.Name(), to, len(payload))
	if plan == nil {
		return nil
	}
	var err error
	for i, dl := range plan {
		p := payload
		if dl.flip >= 0 && dl.flip < len(p) {
			// Corrupt a copy, never the caller's (possibly shared) slice.
			p = append([]byte(nil), payload...)
			p[dl.flip] ^= 0xFF
		}
		if e.t.enqueue(e, to, kind, p, dl.delay) {
			continue
		}
		if sendErr := e.send(to, kind, p); i == 0 {
			err = sendErr
		}
	}
	return err
}

var _ transport.Fabric = (*FaultTransport)(nil)
