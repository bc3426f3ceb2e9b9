// Package steal is the runtime-independent cluster-aware random work
// stealing (CRS) policy kernel. CRS is the load-balancing substrate
// the paper's adaptation story rests on (van Nieuwpoort et al.): an
// idle node issues synchronous steals against random victims in its
// own cluster while keeping at most ONE asynchronous wide-area steal
// outstanding, so WAN latency hides behind LAN attempts. The package
// also implements the StealRandom ablation (uniform victims, every
// WAN round trip paid synchronously — the baseline CRS was invented
// to beat), exponential back-off for fruitless rounds, and the
// inter-cluster wait-threshold accounting for a stalled wide-area
// steal.
//
// The kernel is pure policy: a membership snapshot goes in, steal
// directives come out. It takes no lock, so one engine has one caller
// at a time. Both runtimes drive it — internal/des from its single
// virtual-time goroutine, satin under its membership view's lock — so
// an identical membership/steal script produces the identical victim
// sequence from the same seed on either runtime.
package steal

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
)

// The process root's attempt series, which the observability endpoint
// reads without enumerating engines. An engine counts into its own
// Stats and adds to these only when the runtime calls Publish, so a
// steal round writes nothing that another node's round writes too: a
// shared counter would be a cache line that every simulated and every
// live node bounces between the cores.
var (
	obsSyncLocal = obs.Default.Counter("steal/sync_local_attempts")
	obsSyncWide  = obs.Default.Counter("steal/sync_wide_attempts")
	obsAsync     = obs.Default.Counter("steal/async_attempts")
	obsHits      = obs.Default.Counter("steal/hits")
	obsMisses    = obs.Default.Counter("steal/misses")
)

// Policy selects the victim-selection algorithm.
type Policy int

const (
	// CRS is cluster-aware random stealing: one asynchronous
	// wide-area steal outstanding while synchronous local steals run —
	// Satin's algorithm, the default.
	CRS Policy = iota
	// Random picks victims uniformly from all nodes and steals
	// synchronously, paying every WAN round trip in the idle path.
	Random
)

// Member is one stealable peer in a membership snapshot.
type Member struct {
	ID      core.NodeID
	Cluster core.ClusterID
}

// Directive is the kernel's output for one steal round: whom to
// contact on which slot. It is a plain value — the steal decision sits
// on every idle node's hot path, and a by-value directive with
// presence flags keeps it allocation-free — so check HasSync/HasAsync
// before touching the victims. SyncAt and AsyncAt are the victims'
// positions in the snapshot the View was last rebuilt from, so a
// runtime that keeps its own records in snapshot order finds a victim's
// without looking its ID up.
type Directive struct {
	// Sync is the synchronous victim (CRS: always same-cluster;
	// Random: anyone); meaningful only when HasSync.
	Sync   Member
	SyncAt int
	// HasSync reports that the synchronous slot was filled this round.
	HasSync bool
	// SyncWide reports that Sync sits in another cluster, so the
	// caller blocks on a WAN round trip (Random policy only).
	SyncWide bool
	// Async is the single outstanding asynchronous wide-area victim
	// (CRS only); meaningful only when HasAsync.
	Async   Member
	AsyncAt int
	// HasAsync reports that the asynchronous slot was filled this round.
	HasAsync bool
}

// Stats counts the attempts an engine issued. SyncWide is the number
// the paper cares about: synchronous cross-cluster round trips, which
// CRS keeps at zero by construction and Random pays in the idle path.
type Stats struct {
	SyncLocal int64 // synchronous same-cluster attempts
	SyncWide  int64 // synchronous cross-cluster attempts
	Async     int64 // asynchronous wide-area attempts (latency-hidden)
	Hits      int64 // attempts that brought a job back
	Misses    int64 // attempts that came back empty
}

// SeedFor derives a node's victim-selection stream from a run seed:
// seed ^ FNV-64a(id). Both runtimes use it, which is what makes their
// victim sequences comparable per node.
func SeedFor(seed int64, id core.NodeID) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return seed ^ int64(h.Sum64())
}

// Engine holds one node's steal-policy state: the seeded RNG, the
// sync/async slot occupancy, and the failure streak driving back-off.
// It takes no lock, so its caller serialises the calls: the simulator
// makes them from its one goroutine, satin under its membership view's
// lock.
type Engine struct {
	policy  Policy
	self    core.NodeID
	cluster core.ClusterID

	rng        *rand.Rand // over &draws: victims come from Intn's arithmetic
	syncOut    bool
	asyncOut   bool
	asyncSince float64 // engine time the async steal was issued
	failStreak int
	stats      Stats
	published  Stats // what Publish has added to the process series so far

	// cached home group and position of self inside the last View seen,
	// so NextView re-scans the home group only when membership actually
	// changed, and looks no cluster up per round.
	viewGen   uint64
	view      *View
	home      *viewGroup // nil if the cluster has no members in the view
	selfLocal int        // index of self within its cluster group, -1 if absent

	// draws hands rng the node's math/rand stream value for value from a
	// buffer inside the Engine, so a round reads the Engine's own memory
	// and the generator's 4.9 KB state only once per drawBuf draws.
	draws draws
}

// New builds an engine for one node. seed is the node's stream (use
// SeedFor to derive it from a run seed).
func New(policy Policy, self core.NodeID, cluster core.ClusterID, seed int64) *Engine {
	e := &Engine{policy: policy, self: self, cluster: cluster}
	e.draws.Seed(seed)
	e.rng = rand.New(&e.draws)
	return e
}

// drawBuf is how many values of the stream draws reads at a time.
const drawBuf = 32

// draws is a rand.Source64 that reads a math/rand source drawBuf
// values at a time. Int63 masks a buffered value exactly as the
// source's own Int63 does, so a rand.Rand over draws yields the
// source's sequence unchanged. In a world of thousands of engines
// almost every round is a refused probe, and each draw straight from
// the source would read two scattered words of its 607-word state.
// The source is built from the seed at the first refill after a Seed,
// so a live node that never draws a victim never pays for its 4.9 KB
// state or its seeding.
type draws struct {
	src  rand.Source64 // nil until the first refill after a Seed
	seed int64
	left int // values at the end of buf not yet handed out
	buf  [drawBuf]uint64
}

func (d *draws) Uint64() uint64 {
	if d.left == 0 {
		if d.src == nil {
			d.src = rand.NewSource(d.seed).(rand.Source64)
		}
		for i := range d.buf {
			d.buf[i] = d.src.Uint64()
		}
		d.left = drawBuf
	}
	v := d.buf[drawBuf-d.left]
	d.left--
	return v
}

func (d *draws) Int63() int64 { return int64(d.Uint64() & (1<<63 - 1)) }

// Seed restarts the stream from seed and drops what is buffered and
// the source; the next draw builds a source from seed.
func (d *draws) Seed(seed int64) {
	d.seed, d.src, d.left = seed, nil, 0
}

// View is a membership snapshot pre-indexed by cluster: the simulator
// shares one between all its engines, a live node keeps its own. It is
// rebuilt once per membership change, not per steal attempt; NextView
// then draws victims in O(log cluster-size) without touching the other
// members (partitioning the snapshot per attempt was the dominant
// simulator cost at 10k nodes). Candidates keep snapshot order, so
// identical snapshots yield identical victims from one seed.
type View struct {
	gen     uint64
	members []Member
	groups  map[core.ClusterID]*viewGroup
}

// viewGroup is one cluster's slice of the snapshot: its members in
// snapshot order plus their positions in the full snapshot, ascending
// (pos drives the order-preserving remote remap).
type viewGroup struct {
	gen     uint64 // stamp of the Rebuild that last filled this group
	members []Member
	pos     []int
}

// NewView allocates an empty view; call Rebuild to index a snapshot.
func NewView() *View {
	return &View{groups: make(map[core.ClusterID]*viewGroup)}
}

// Rebuild re-indexes the view over a fresh snapshot, reusing prior
// allocations. Groups of clusters absent from the new snapshot stay in
// the map but carry a stale gen stamp, so lookups treat them as empty.
func (v *View) Rebuild(members []Member) {
	v.gen++
	v.members = append(v.members[:0], members...)
	for i, m := range v.members {
		g := v.groups[m.Cluster]
		if g == nil {
			g = &viewGroup{}
			v.groups[m.Cluster] = g
		}
		if g.gen != v.gen {
			g.gen = v.gen
			g.members = g.members[:0]
			g.pos = g.pos[:0]
		}
		g.members = append(g.members, m)
		g.pos = append(g.pos, i)
	}
}

// Len reports the snapshot size.
func (v *View) Len() int { return len(v.members) }

// group returns the cluster's live group, nil if the cluster has no
// members in the current snapshot.
func (v *View) group(c core.ClusterID) *viewGroup {
	g := v.groups[c]
	if g == nil || g.gen != v.gen {
		return nil
	}
	return g
}

// remoteAt returns the snapshot position of the j-th member of the
// snapshot with the cluster's own block filtered out, in snapshot
// order. pos is sorted ascending, so the filtered index maps back to a
// snapshot index by counting how many excluded positions precede it;
// pos[k]-k is non-decreasing, which makes the predicate
// binary-searchable.
func (v *View) remoteAt(g *viewGroup, j int) int {
	if g == nil {
		return j
	}
	return j + sort.Search(len(g.pos), func(k int) bool { return g.pos[k] > j+k })
}

// refreshView re-locates the home group and self inside it.
// O(cluster size), and only after a Rebuild.
func (e *Engine) refreshView(v *View) {
	e.view, e.viewGen = v, v.gen
	e.home = v.group(e.cluster)
	e.selfLocal = -1
	if g := e.home; g != nil {
		for i, m := range g.members {
			if m.ID == e.self {
				e.selfLocal = i
				break
			}
		}
	}
}

// NextView is NextViewInto for a caller that keeps no Directive of its own.
func (e *Engine) NextView(now float64, v *View) Directive {
	var d Directive
	e.NextViewInto(now, v, &d)
	return d
}

// NextViewInto runs one steal round against a membership view: it
// fills every free slot the policy allows, marks it in flight, and
// writes whom to contact into d, which the caller owns, so a round
// copies no Directive. It writes only the slots it fills: HasSync and
// HasAsync say which of d's victims are this round's. now is the
// caller's clock in seconds (virtual or wall — the engine only ever
// compares differences).
func (e *Engine) NextViewInto(now float64, v *View, d *Directive) {
	if e.view != v || e.viewGen != v.gen {
		e.refreshView(v)
	}
	d.HasSync, d.SyncWide, d.HasAsync = false, false, false
	g := e.home
	nLocal := 0
	if g != nil {
		nLocal = len(g.members)
	}
	if e.policy == Random {
		if e.syncOut {
			return
		}
		// all = snapshot minus self, in snapshot order.
		n := len(v.members)
		if e.selfLocal >= 0 {
			n--
		}
		if n == 0 {
			return
		}
		i := e.rng.Intn(n)
		if e.selfLocal >= 0 && i >= g.pos[e.selfLocal] {
			i++
		}
		vict := v.members[i]
		e.syncOut = true
		d.Sync, d.SyncAt = vict, i
		d.HasSync = true
		d.SyncWide = vict.Cluster != e.cluster
		if d.SyncWide {
			e.stats.SyncWide++
		} else {
			e.stats.SyncLocal++
		}
		return
	}
	// CRS: async (wide-area) slot first, then the synchronous local
	// slot — the draw order both runtimes historically used, kept so
	// one RNG stream drives both identically.
	if nRemote := len(v.members) - nLocal; !e.asyncOut && nRemote > 0 {
		d.AsyncAt = v.remoteAt(g, e.rng.Intn(nRemote))
		d.Async = v.members[d.AsyncAt]
		d.HasAsync = true
		e.asyncOut = true
		e.asyncSince = now
		e.stats.Async++
	}
	nCand := nLocal
	if e.selfLocal >= 0 {
		nCand--
	}
	if !e.syncOut && nCand > 0 {
		i := e.rng.Intn(nCand)
		if e.selfLocal >= 0 && i >= e.selfLocal {
			i++
		}
		d.Sync, d.SyncAt = g.members[i], g.pos[i]
		d.HasSync = true
		e.syncOut = true
		e.stats.SyncLocal++
	}
}

// SyncDone clears the synchronous slot; got reports whether the
// attempt brought a job back.
func (e *Engine) SyncDone(got bool) { e.done(&e.syncOut, got) }

// AsyncDone clears the asynchronous wide-area slot.
func (e *Engine) AsyncDone(got bool) { e.done(&e.asyncOut, got) }

func (e *Engine) done(slot *bool, got bool) {
	*slot = false
	if got {
		e.failStreak = 0
		e.stats.Hits++
	} else {
		e.failStreak++
		e.stats.Misses++
	}
}

// Outstanding reports whether any steal slot is in flight.
func (e *Engine) Outstanding() bool {
	return e.syncOut || e.asyncOut
}

// AsyncStalled reports whether the outstanding wide-area steal has
// been in flight longer than threshold: a healthy WAN round trip
// stays idle time, a saturated link must surface as inter-cluster
// communication overhead.
func (e *Engine) AsyncStalled(now, threshold float64) bool {
	return e.asyncOut && now-e.asyncSince > threshold
}

// BackoffSec is the exponential retry delay after fruitless rounds:
// 2ms doubling per consecutive failure, capped at 250ms, so an idle
// node keeps probing without flooding anyone.
func (e *Engine) BackoffSec() float64 {
	backoff := 0.002 * float64(int(1)<<min(e.failStreak, 7))
	if backoff > 0.25 {
		backoff = 0.25
	}
	return backoff
}

// Stats snapshots the attempt counters.
func (e *Engine) Stats() Stats {
	return e.stats
}

// Publish adds to the process's steal/* series what the engine counted
// since it last published. The runtime picks the moments: a live node
// after every round and every reply, the simulator when the engine's
// node leaves and when the run ends.
func (e *Engine) Publish() {
	s, p := e.stats, e.published
	e.published = s
	add(obsSyncLocal, s.SyncLocal-p.SyncLocal)
	add(obsSyncWide, s.SyncWide-p.SyncWide)
	add(obsAsync, s.Async-p.Async)
	add(obsHits, s.Hits-p.Hits)
	add(obsMisses, s.Misses-p.Misses)
}

// add leaves c alone when there is nothing to add: an atomic add of
// zero still takes the cache line.
func add(c *obs.Counter, n int64) {
	if n > 0 {
		c.Add(uint64(n))
	}
}
