package satin

import (
	"fmt"
	"time"

	"repro/internal/deque"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"sync"
	"sync/atomic"
)

// NodeConfig configures one runtime node.
type NodeConfig struct {
	ID      NodeID
	Cluster ClusterID

	// Fabric carries both the registry session and the steal/result
	// traffic. The node heartbeats at the interval the fabric's registry
	// server announces.
	Fabric transport.Fabric

	// Epoch is the origin of the node's report timeline (Report.Start/
	// End are seconds since it). NewGrid stamps one shared epoch onto
	// every node it starts so their periods line up; zero means "this
	// node's start time". It is per grid, never process-wide: two grids
	// in one process must not share a timeline.
	Epoch time.Time

	// Coordinator, when set, is the adaptation coordinator's endpoint
	// name (adapt.EndpointName). The node sends its per-period
	// statistics reports to its own cluster's sub-coordinator, whose
	// endpoint derives from this name and the cluster.
	Coordinator string
	// MonitorPeriod is the statistics period (default 2s — the real
	// runtime runs at millisecond task scale, so periods shrink with it).
	MonitorPeriod time.Duration

	// Bench is the application-specific speed benchmark: the
	// application itself with a small problem size. It must be a
	// sequential task (no spawns). BenchWork is its nominal size in
	// work units; the measured speed is BenchWork divided by the wall
	// time of one run. BenchBudget bounds the benchmarking overhead.
	// A nil Bench leaves the node unbenchmarked: its reports carry
	// speed 0 and no bench time. Only a node that reports to a
	// Coordinator needs one.
	Bench       Task
	BenchWork   float64
	BenchBudget float64

	// LocalStealTimeout / WANStealTimeout bound synchronous local and
	// asynchronous wide-area steal attempts (defaults 250ms and 3s; a
	// Grid derives the local one from its LAN latency instead).
	LocalStealTimeout time.Duration
	WANStealTimeout   time.Duration

	// StealPolicy selects the victim-selection algorithm (default
	// StealCRS; StealRandom is the ablation baseline).
	StealPolicy StealPolicy

	// Seed makes victim selection reproducible per node.
	Seed int64
}

func (c *NodeConfig) defaults() {
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = 2 * time.Second
	}
	if c.BenchBudget == 0 {
		c.BenchBudget = 0.03
	}
	if c.LocalStealTimeout == 0 {
		c.LocalStealTimeout = 250 * time.Millisecond
	}
	if c.WANStealTimeout == 0 {
		c.WANStealTimeout = 3 * time.Second
	}
}

// pendingJob is a job this node owns whose result arrives by ID: a
// root entered through Submit, or a spawned job that left the node
// (onSteal registers it on its way out, holder = the thief). A spawned
// job that stays home never has one. Stored BY VALUE in the pending
// map, so mutations must write the entry back.
type pendingJob struct {
	task   Task
	fut    *Future
	holder NodeID // who currently holds it ("" never; self = local)
}

// Node is one processor of the runtime, decomposed into components
// with narrow locks so the spawn/pop hot path never serialises
// against steal handlers, membership events or statistics:
//
//   - jobs:    lock-free Chase–Lev deque — the worker goroutine owns
//     the bottom (Spawn push, popNewest pop), steal handlers CAS the
//     top. No lock on the path every task traverses.
//   - inbox:   the funnel for jobs arriving off the worker goroutine
//     (adopted steals, reclaims, Submit roots); the worker drains it
//     into the deque between tasks.
//   - mu:      shrunk to the genuinely shared job-OWNERSHIP state:
//     the pending table (submitted roots and jobs that left the node,
//     nothing a spawn touches), ID allocation and the stopped flag.
//   - gate:    read-held by every wire handler that sends, from its
//     stopped check to its last send; halt sets stopped under the write
//     lock, so once halt returns no handler of this node sends again.
//   - members: membership view (registry client, departed set) and the
//     CRS engine (internal/steal), which takes no lock of its own.
//   - stealer: steal reply waiters.
//   - stats:   accounting buckets, load factor and benchmark pacing.
//
// Lock hierarchy: gate before n.mu; n.mu may acquire members' or
// stats' internal locks; never the reverse.
type Node struct {
	cfg NodeConfig
	wc  *wire.Conn

	jobs    *deque.Deque[*jobMsg]
	inbox   inbox
	ctxFree []*Context   // worker-confined Context free list, with their spawn slots
	wait    *replyWait   // worker-confined: its steal waits and parks
	attempt stealAttempt // worker-confined: its one synchronous steal request

	gate    sync.RWMutex
	mu      sync.Mutex
	pending map[uint64]pendingJob
	nextID  uint64
	// stopped is set under gate and mu, which order it against sending
	// handlers and the pending table, and read without either where only
	// the flag matters (Sync asks Stopped once per pass).
	leaving atomic.Bool
	stopped atomic.Bool

	// pinned is set while the worker is inside a job it took at the top
	// of its loop, the only time thieves may help themselves to the inbox.
	pinned atomic.Bool

	// hungry is the endpoint of the same-cluster thief this node last
	// turned away empty-handed; the next Spawn or Submit takes it out and
	// sends it one wake frame.
	hungry atomic.Pointer[string]

	members membershipView
	stealer stealer
	stats   statsTracker

	wake   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup

	onStop func(*Node) // deployment bookkeeping hook
}

func satinEP(id NodeID) string { return "satin:" + string(id) }

// StartNode sends the node's registry join and starts its worker
// without waiting for the ack: until the ack arrives nobody knows the
// node, so it runs only what is submitted to it and holds no stolen
// work. A join that gives up stops the node the way a crash does.
func StartNode(cfg NodeConfig) (*Node, error) { return startNode(cfg, nil) }

// startNode is StartNode with the deployment's bookkeeping hook, set
// before any of the node's goroutines can stop it.
func startNode(cfg NodeConfig, onStop func(*Node)) (*Node, error) {
	cfg.defaults()
	if cfg.ID == "" || cfg.Fabric == nil {
		return nil, fmt.Errorf("satin: NodeConfig needs ID and Fabric")
	}
	ep, err := cfg.Fabric.Endpoint(satinEP(cfg.ID))
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		wc:      wire.New(ep),
		jobs:    deque.New[*jobMsg](),
		pending: make(map[uint64]pendingJob),
		wait:    newReplyWait(),
		wake:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		onStop:  onStop,
	}
	n.members.init(&cfg)
	n.stealer.init()
	n.stats.init(&cfg)
	// Handlers go live before the registry join: a peer that learns of
	// this node through the join broadcast may steal from it before the
	// ack reaches it here.
	wire.Handle(n.wc, n.onSteal)
	wire.Handle(n.wc, n.onStealReply)
	wire.Handle(n.wc, n.onResult)
	wire.Handle(n.wc, n.onHolding)
	wire.Handle(n.wc, func(wakeMsg, wire.Meta) { n.wakeUp() })
	reg, err := registry.Begin(cfg.Fabric, registry.NodeInfo{ID: cfg.ID, Cluster: cfg.Cluster}, registry.Options{})
	if err != nil {
		n.wc.Close()
		return nil, err
	}
	n.members.setClient(reg)
	n.wg.Add(2)
	go n.eventLoop()
	go n.worker()
	if cfg.Coordinator != "" {
		n.wg.Add(1)
		go n.reportLoop()
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Cluster returns the node's site.
func (n *Node) Cluster() ClusterID { return n.cfg.Cluster }

// SetLoadFactor emulates a competing CPU load: application work (and
// the benchmark) takes (1+f) times as long. This is the real-runtime
// counterpart of the paper's artificial-load experiments.
func (n *Node) SetLoadFactor(f float64) { n.stats.setLoad(f) }

// registerJob allocates an ID and records ownership of a job whose
// result will arrive by that ID.
func (n *Node) registerJob(t Task, fut *Future, holder NodeID) uint64 {
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	n.pending[id] = pendingJob{task: t, fut: fut, holder: holder}
	n.mu.Unlock()
	return id
}

// Submit enters a root task owned by this node and returns its future.
// Callable from any goroutine: the job travels through the inbox and
// the worker adopts it.
func (n *Node) Submit(t Task) *Future {
	fut := &Future{notify: make(chan struct{})}
	id := n.registerJob(t, fut, n.cfg.ID)
	n.inbox.add(&jobMsg{ID: id, Owner: n.cfg.ID, Task: t})
	n.wakeUp()
	n.wakeThief()
	return fut
}

// wakeThief sends the remembered thief, if any, one wake frame: work
// just became available here. With nobody remembered, the case on
// every spawn of a busy grid, it is one atomic load.
func (n *Node) wakeThief() {
	if n.hungry.Load() == nil {
		return
	}
	if ep := n.hungry.Swap(nil); ep != nil && n.live() {
		wire.Send(n.wc, *ep, wakeMsg{})
		n.gate.RUnlock()
	}
}

// live admits a caller about to send on behalf of a running node: it
// reports false once the node has stopped, and otherwise holds halt
// off until the caller's n.gate.RUnlock.
func (n *Node) live() bool {
	n.gate.RLock()
	if n.stopped.Load() {
		n.gate.RUnlock()
		return false
	}
	return true
}

// Run submits a root task and blocks until it completes.
func (n *Node) Run(t Task) (any, error) {
	fut := n.Submit(t)
	fut.Wait()
	return fut.Result()
}

// Stopped reports whether the node has shut down.
func (n *Node) Stopped() bool { return n.stopped.Load() }

// Kill stops the node abruptly, simulating a crash: no leave message;
// peers find out through the failure detector.
func (n *Node) Kill() {
	if n.halt() {
		n.quiesce()
		n.teardown()
	}
}

// halt is the first step of Kill: from here on the node steals
// nothing, serves no thief and runs no further job, but its endpoints
// stay attached. Handlers in the middle of a send finish it first (the
// gate), so none sends after halt returns. It reports false when the
// node had already stopped.
func (n *Node) halt() bool {
	n.gate.Lock()
	n.mu.Lock()
	if n.stopped.Load() {
		n.mu.Unlock()
		n.gate.Unlock()
		return false
	}
	n.stopped.Store(true)
	// Fail every registered future: a caller blocked in Future.Wait
	// (e.g. Node.Run on this node) must not hang forever on a dead
	// node — nobody will ever deliver those results here. Unregistered
	// ones belong to frames of this worker, which Sync unblocks.
	pending := n.pending
	n.pending = make(map[uint64]pendingJob)
	n.mu.Unlock()
	n.gate.Unlock()
	for _, pj := range pending {
		pj.fut.complete(nil, errNodeStopped)
	}
	close(n.stopCh)
	n.wakeUp()
	return true
}

// quiesce waits for a halted node's goroutines: once it returns the
// node sends nothing at all (its handlers stopped sending at halt).
func (n *Node) quiesce() { n.wg.Wait() }

// teardown detaches a quiesced node from the registry and the fabric.
func (n *Node) teardown() {
	n.members.client().Close()
	n.wc.Close()
	if n.onStop != nil {
		n.onStop(n)
	}
}

func (n *Node) completeLocal(id uint64, val any, err error) {
	n.mu.Lock()
	pj, ok := n.pending[id]
	if ok {
		delete(n.pending, id)
	}
	n.mu.Unlock()
	if ok {
		pj.fut.complete(val, err)
		n.wakeUp()
	}
}

// setHolder updates who holds an owned job, for recomputation if the
// holder dies.
func (n *Node) setHolder(id uint64, holder NodeID) {
	n.mu.Lock()
	if pj, ok := n.pending[id]; ok {
		pj.holder = holder
		n.pending[id] = pj
	}
	n.mu.Unlock()
}

// noteHolding tells the job's owner who holds it now, so the owner can
// recompute it if this node dies (the fault-tolerance bookkeeping).
func (n *Node) noteHolding(j *jobMsg) {
	if j.Owner == n.cfg.ID {
		n.setHolder(j.ID, n.cfg.ID)
		return
	}
	wire.Send(n.wc, satinEP(j.Owner), holdingMsg{ID: j.ID, Holder: n.cfg.ID})
}

// ---- malleability ----

// tryFinishLeave completes a graceful departure once no self-owned
// work remains: foreign jobs still queued here are dropped, and their
// owners recompute them when the registry reports the departure
// (reclaimFrom), exactly as after a crash. Returns true when the node
// is done. Worker goroutine only (it drains the deque's owner end).
func (n *Node) tryFinishLeave() bool {
	n.mu.Lock()
	if n.stopped.Load() {
		// Kill won the race; the node is already down, stopCh closed.
		n.mu.Unlock()
		return true
	}
	if len(n.pending) > 0 {
		// A root of this node, or a job of its that a thief holds, is
		// unfinished: it must keep working before it may leave.
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()

	// Drain everything this node holds. The worker owns the deque
	// bottom, so nobody else pops here; thieves may race us for
	// individual jobs, which is fine — a stolen job's owner has the
	// thief as its holder, not us.
	n.drainInbox()
	var foreign []*jobMsg
	for {
		j, ok := n.jobs.PopBottom()
		if !ok {
			break
		}
		if j.Owner == n.cfg.ID {
			// Own work still queued (spawned and never synced on, so
			// never registered, or a Submit that raced the pending
			// check): put everything back and keep working.
			n.jobs.Push(j)
			for _, f := range foreign {
				n.jobs.Push(f)
			}
			return false
		}
		foreign = append(foreign, j)
	}

	n.gate.Lock()
	n.mu.Lock()
	if n.stopped.Load() {
		// Kill raced the drain: the node is already down.
		n.mu.Unlock()
		n.gate.Unlock()
		return true
	}
	if len(n.pending) > 0 {
		n.mu.Unlock()
		n.gate.Unlock()
		for _, f := range foreign {
			n.jobs.Push(f)
		}
		return false
	}
	n.stopped.Store(true)
	n.mu.Unlock()
	n.gate.Unlock()
	close(n.stopCh)
	n.members.client().Leave()
	n.wc.Close()
	// The worker (our caller) returns after this; notify once every
	// companion goroutine has drained.
	go func() {
		n.wg.Wait()
		if n.onStop != nil {
			n.onStop(n)
		}
	}()
	return true
}

// ---- owner-side message handling ----

func (n *Node) onResult(rm resultMsg, m wire.Meta) {
	n.countInterBytes(m)
	n.completeLocal(rm.ID, rm.Value, stringErr(rm.Err))
}

func (n *Node) onHolding(hm holdingMsg, _ wire.Meta) {
	n.mu.Lock()
	var job *jobMsg
	if pj, ok := n.pending[hm.ID]; ok {
		if n.members.isDeparted(hm.Holder) {
			// The notification lost the race with the holder's
			// death event: recompute here and now, or the job
			// would point at a dead node forever.
			pj.holder = n.cfg.ID
			job = &jobMsg{ID: hm.ID, Owner: n.cfg.ID, Task: pj.task}
		} else {
			pj.holder = hm.Holder
		}
		n.pending[hm.ID] = pj
	}
	n.mu.Unlock()
	if job != nil {
		n.inbox.add(job)
		n.wakeUp()
	}
}
