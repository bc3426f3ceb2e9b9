package satin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// slowVictim wraps a fabric so that one endpoint takes `delay` to look
// at each steal request it is sent (its reply leaves that much late),
// and counts, per thief, the steal requests sent and not yet answered.
type slowVictim struct {
	transport.Fabric
	victim string
	delay  time.Duration

	mu      sync.Mutex
	out     map[string]int // thief endpoint -> requests in flight
	maxOut  int
	replies int
}

type slowVictimEP struct {
	transport.Endpoint
	f *slowVictim
}

func (f *slowVictim) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &slowVictimEP{Endpoint: ep, f: f}, nil
}

func (e *slowVictimEP) Send(to, kind string, payload []byte) error {
	if kind == "steal" {
		f := e.f
		f.mu.Lock()
		f.out[e.Name()]++
		f.maxOut = max(f.maxOut, f.out[e.Name()])
		f.mu.Unlock()
	}
	return e.Endpoint.Send(to, kind, payload)
}

func (e *slowVictimEP) SetHandler(h transport.Handler) {
	f := e.f
	e.Endpoint.SetHandler(func(m transport.Message) {
		switch {
		case m.Kind == "steal" && m.To == f.victim:
			time.Sleep(f.delay)
		case m.Kind == "steal-reply":
			f.mu.Lock()
			f.out[m.To]--
			f.replies++
			f.mu.Unlock()
		}
		h(m)
	})
}

// tstamped takes Sleep and notes when it finished.
type tstamped struct{ Sleep time.Duration }

var stampedAt atomic.Int64 // UnixNano

func (s tstamped) Execute(*Context) (any, error) {
	time.Sleep(s.Sleep)
	stampedAt.Store(time.Now().UnixNano())
	return 1, nil
}

func init() { Register(tstamped{}) }

// tawaited spawns one stamped child, holds its worker until a thief has
// taken the child, syncs on it and notes when the Sync returned.
type tawaited struct {
	Child  time.Duration
	Stolen chan struct{}
	Synced *atomic.Int64 // UnixNano
}

func (a tawaited) Execute(ctx *Context) (any, error) {
	c := ctx.Spawn(tstamped{Sleep: a.Child})
	<-a.Stolen
	err := ctx.Sync()
	a.Synced.Store(time.Now().UnixNano())
	return c.Int(), err
}

// A worker waiting for a steal reply is interrupted by the result it is
// syncing on. The victim sits on every request for 50 ms; the stolen
// child's result travels at once, on a link of its own. Sync must
// return when the result is in, not when the reply is, while the
// attempt stays out, is not doubled, and is settled once when the reply
// does come.
func TestResultInterruptsStealWait(t *testing.T) {
	const delay, child, prompt = 50 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond
	local := func() uint64 {
		return obs.Default.Total("satin/steal_ok/local") + obs.Default.Total("satin/steal_fail/local")
	}
	settledBefore := local()
	slow := &slowVictim{victim: "satin:c0/01", delay: delay, out: make(map[string]int)}
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}},
		Registry:   fastReg(),
		WrapFabric: func(f transport.Fabric) transport.Fabric { slow.Fabric = f; return slow },
		Node:       NodeConfig{LocalStealTimeout: time.Second}, // no attempt times out here
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			g.Close()
		}
	}()
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	master, thief := nodes[0], nodes[1]

	stolen := make(chan struct{})
	open := sync.OnceFunc(func() { close(stolen) })
	defer open() // a held worker would hang Close
	var synced atomic.Int64
	fut := master.Submit(tawaited{Child: child, Stolen: stolen, Synced: &synced})
	waitUntil(t, "the thief holds the child", func() bool { return master.heldBy(thief.ID()) == 1 })
	open()
	fut.Wait()
	if v, err := fut.Result(); err != nil || v != 1 {
		t.Fatalf("root = %v, %v", v, err)
	}
	if lag := time.Duration(synced.Load() - stampedAt.Load()); lag >= prompt {
		t.Errorf("Sync returned %v after the stolen child finished, want under %v: it sat out the %v steal reply", lag, prompt, delay)
	}

	// Let the held-back replies come in, then stop the pair: every
	// attempt either was answered or is settled as its worker exits.
	time.Sleep(delay + 10*time.Millisecond)
	g.Close()
	closed = true
	attempts := master.StealStats().SyncLocal + thief.StealStats().SyncLocal
	if settled := local() - settledBefore; settled != uint64(attempts) {
		t.Errorf("%d local steal attempts, %d settled (hits + misses)", attempts, settled)
	}
	slow.mu.Lock()
	defer slow.mu.Unlock()
	if slow.maxOut > 1 {
		t.Errorf("a node had %d synchronous steal requests in flight at once", slow.maxOut)
	}
	if slow.replies == 0 {
		t.Error("the wrapper saw no steal reply: nothing was measured")
	}
}

// A node's steal engine takes no lock of its own: the worker's rounds
// and stall checks and the settles of its wide-area steals, which run
// on goroutines of their own, all go through the membership view's
// lock. Idle nodes in two clusters keep one WAN steal out each while
// their workers draw local victims, then run a job; under the race
// detector an engine call outside the lock is a reported race. Every
// attempt must also be settled exactly once.
func TestWANSettleSharesTheEngineLock(t *testing.T) {
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}, {Name: "c1", Nodes: 2}},
		Registry:   fastReg(),
		LANLatency: 50 * time.Microsecond,
		WANLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			g.Close()
		}
	}()
	var nodes []*Node
	for _, c := range []ClusterID{"c0", "c1"} {
		ns, err := g.StartNodes(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, ns...)
	}
	waitUntil(t, "a wide-area steal has settled", func() bool {
		s := nodes[0].StealStats()
		return s.Async > 0 && s.Hits+s.Misses > s.SyncLocal
	})
	if res, err := nodes[0].Run(tfib{N: 10, Leaf: 100 * time.Microsecond}); err != nil || res != fibLeaves(10) {
		t.Fatalf("fib(10) = %v, %v, want %d", res, err, fibLeaves(10))
	}
	g.Close()
	closed = true
	for _, n := range nodes {
		s := n.StealStats()
		if s.Async == 0 {
			t.Errorf("%s issued no wide-area steal: nothing was measured", n.ID())
		}
		if attempts := s.SyncLocal + s.SyncWide + s.Async; attempts != s.Hits+s.Misses {
			t.Errorf("%s: %d attempts, %d settled (hits %d + misses %d)", n.ID(), attempts, s.Hits+s.Misses, s.Hits, s.Misses)
		}
	}
}

// A node asked to leave while its steal request is out lets the reply
// come home before it closes its endpoint: an interrupted wait must
// not turn every leave into a victim's failed send.
func TestLeaverWaitsForItsStealReply(t *testing.T) {
	replyErrs := func() uint64 { return obs.Default.Total("wire/send_err/steal-reply") }
	before := replyErrs()
	for round := 0; round < 3; round++ {
		slow := &slowVictim{victim: "satin:c0/01", delay: 20 * time.Millisecond, out: make(map[string]int)}
		g, err := NewGrid(GridConfig{
			Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}},
			Registry:   fastReg(),
			WrapFabric: func(f transport.Fabric) transport.Fabric { slow.Fabric = f; return slow },
			Node:       NodeConfig{LocalStealTimeout: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := g.StartNodes("c0", 2)
		if err != nil {
			g.Close()
			t.Fatal(err)
		}
		// Node 0 has a request out nearly all the time: each takes the
		// victim 20 ms to look at.
		time.Sleep(30 * time.Millisecond)
		g.Registry().Signal(nodes[0].ID(), "leave")
		waitUntil(t, "node 0 has left", nodes[0].Stopped)
		time.Sleep(2 * slow.delay) // anything still owed to it has been sent
		g.Close()
	}
	if after := replyErrs(); after != before {
		t.Errorf("three leaves with a steal request out raised wire/send_err/steal-reply from %d to %d", before, after)
	}
}

// twoMarks spawns two children that each note where and when they
// started and then keep their node busy for a while, so the second can
// only start promptly on the other node.
type twoMarks struct{ Round int }

type tmark struct{ Round, Slot int }

type markAt struct {
	node NodeID
	at   time.Time
}

var (
	marksMu sync.Mutex
	marks   map[[2]int]markAt
)

func (m tmark) Execute(ctx *Context) (any, error) {
	now := time.Now()
	marksMu.Lock()
	marks[[2]int{m.Round, m.Slot}] = markAt{ctx.NodeID(), now}
	marksMu.Unlock()
	time.Sleep(4 * time.Millisecond)
	return nil, nil
}

func (r twoMarks) Execute(ctx *Context) (any, error) {
	ctx.Spawn(tmark{Round: r.Round, Slot: 0})
	ctx.Spawn(tmark{Round: r.Round, Slot: 1})
	return nil, ctx.Sync()
}

func init() {
	Register(twoMarks{})
	Register(tmark{})
}

// An idle peer is told about new work instead of finding it on its next
// poll. Two idle nodes on a 20 µs LAN: a root submitted on node 0 has a
// child running on each node within a millisecond (wake frame, steal
// request, reply: three hops, 0.16 ms at the median here, 0.45 ms under
// the race detector). A thief that polls every 2 ms gets there in time
// in under half the rounds. Two rounds in twenty may run late: one in
// two hundred loses a millisecond or more to the host, wake or no wake.
// Under the race detector the limit is 2 ms (raceAllowance): in 40 runs
// beside the other idle-path tests, 47 of 800 rounds took over 1 ms and
// 3 over 2 ms; a thief polling every 2 ms would still be late in about
// one round in five. The rounds start once both joins are acked: a node
// that has not seen its peer yet sends it no steal request, so nobody
// tells it about work, and the first round ran 2–5 ms late on most runs.
// (On the default 200 µs LAN the three hops take 0.83 ms at the median
// and 1.46 ms at the ninth decile under the race detector: too close to
// any limit that polling would still miss.)
func TestWakeOnWork(t *testing.T) {
	g, err := NewGrid(GridConfig{
		Clusters:   []ClusterSpec{{Name: "c0", Nodes: 2}},
		Registry:   fastReg(),
		LANLatency: 20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes { // membership settles
		select {
		case <-n.members.client().Joined():
		case <-time.After(5 * time.Second):
			t.Fatalf("%s's join was never acked", n.ID())
		}
	}
	if _, err := nodes[0].Run(tnop{}); err != nil {
		t.Fatal(err)
	}
	marksMu.Lock()
	marks = make(map[[2]int]markAt)
	marksMu.Unlock()
	const rounds, limit, needed = 20, time.Millisecond + raceAllowance, 18
	inTime := 0
	for round := 0; round < rounds; round++ {
		time.Sleep(5 * time.Millisecond) // both nodes idle again, at no particular phase of their polling
		start := time.Now()
		if _, err := nodes[0].Run(twoMarks{Round: round}); err != nil {
			t.Fatal(err)
		}
		marksMu.Lock()
		a, b := marks[[2]int{round, 0}], marks[[2]int{round, 1}]
		marksMu.Unlock()
		switch late := max(a.at.Sub(start), b.at.Sub(start)); {
		case a.node == b.node:
			t.Logf("round %d: both children ran on %s", round, a.node)
		case late > limit:
			t.Logf("round %d: children started %v (%s) and %v (%s) after the submit",
				round, a.at.Sub(start), a.node, b.at.Sub(start), b.node)
		default:
			inTime++
		}
	}
	if inTime < needed {
		t.Errorf("both nodes were running a child within %v of the submit in %d of %d rounds, want %d", limit, inTime, rounds, needed)
	}
}

// The wake frame is a header and nothing else, under the kind "wake".
func TestWakeFrameBytes(t *testing.T) {
	body, err := (&wakeMsg{}).AppendWire(nil)
	if err != nil || len(body) != 0 {
		t.Fatalf("wake body = %x, %v, want no bytes", body, err)
	}
	g := testGrid(t, ClusterSpec{Name: "c0", Nodes: 1})
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := g.Fabric().Endpoint("satin:c0/99")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	got := make(chan transport.Message, 1)
	ep.SetHandler(func(m transport.Message) {
		select {
		case got <- m:
		default:
		}
	})
	n := nodes[0]
	turnedAway := "satin:c0/99"
	n.hungry.Store(&turnedAway)
	n.wakeThief()
	select {
	case m := <-got:
		// 12 bytes: the wire layer's epoch, sequence number and check.
		if m.Kind != "wake" || len(m.Payload) != 12 {
			t.Errorf("wake frame = kind %q, %d bytes (%x), want kind \"wake\", the 12-byte header and no body", m.Kind, len(m.Payload), m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no frame reached the remembered thief")
	}
	if n.hungry.Load() != nil {
		t.Error("the thief is still remembered after its wake frame went out")
	}
}

// A grid derives the local steal timeout from its LAN latency; a node
// configured with one keeps it.
func TestLocalStealTimeoutFollowsTheLAN(t *testing.T) {
	for _, tc := range []struct {
		lan, set, want time.Duration
	}{
		{lan: 200 * time.Microsecond, want: 10 * time.Millisecond},
		{lan: 20 * time.Microsecond, want: 5 * time.Millisecond}, // the floor
		{lan: 2 * time.Millisecond, want: 100 * time.Millisecond},
		{lan: 200 * time.Microsecond, set: 70 * time.Millisecond, want: 70 * time.Millisecond},
	} {
		g, err := NewGrid(GridConfig{
			Clusters:   []ClusterSpec{{Name: "c0", Nodes: 1}},
			Registry:   fastReg(),
			LANLatency: tc.lan,
			Node:       NodeConfig{LocalStealTimeout: tc.set},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := g.StartNodes("c0", 1)
		if err != nil {
			g.Close()
			t.Fatal(err)
		}
		if got := nodes[0].cfg.LocalStealTimeout; got != tc.want {
			t.Errorf("LAN %v, configured %v: LocalStealTimeout = %v, want %v", tc.lan, tc.set, got, tc.want)
		}
		g.Close()
	}
}
