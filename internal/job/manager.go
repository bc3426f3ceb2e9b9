package job

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/adapt"
	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/record"
	"repro/internal/registry"
	"repro/satin"
)

// Config describes the service-wide deployment every job runs inside:
// the emulated clusters (owned by the shared pool, not by any job) and
// the execution limits.
type Config struct {
	// Clusters is the grid's capacity. Every job's deployment emulates
	// these same clusters; the shared arbiter owns the processors.
	Clusters []satin.ClusterSpec

	LANLatency time.Duration // default 200µs
	WANLatency time.Duration // default 5ms

	// MaxActive bounds concurrently executing jobs (default 8); queued
	// jobs also wait until the admitted jobs' MinNodes fit capacity.
	MaxActive int
	// Period is the default monitoring period (default 500ms).
	Period time.Duration
	// ProvisionPatience bounds how long a job waits for MinNodes before
	// starting with whatever it holds — at least the master (default 5s).
	ProvisionPatience time.Duration
	// Registry tunes each job's registry server, which sets the pace for
	// the job's nodes and coordinator (tests use fast heartbeats).
	Registry registry.Options
	// Node overrides per-node defaults (benchmark, steal timeouts). The
	// default benchmark is fib(18) at a 3 % budget; only adaptive jobs
	// run it, since the coordinator is the one reader of a node's speed.
	Node satin.NodeConfig
	// Recorder, when set, receives job lifecycle and iteration events.
	Recorder *record.Recorder
	// Seed, when non-zero, makes runs reproducible: the n-th job
	// submitted (job-00n) runs with Seed+n, whenever it is admitted.
	Seed int64
}

func (c *Config) defaults() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("job: manager needs at least one cluster")
	}
	if c.Period < 0 {
		return fmt.Errorf("job: monitoring period must be >= 0, got %v", c.Period)
	}
	if c.MaxActive == 0 {
		c.MaxActive = 8
	}
	if c.Period == 0 {
		c.Period = 500 * time.Millisecond
	}
	if c.ProvisionPatience == 0 {
		c.ProvisionPatience = 5 * time.Second
	}
	if c.Node.Bench == nil {
		c.Node.Bench = apps.Fib{N: 18, SeqCutoff: 18}
		c.Node.BenchWork = float64(apps.FibLeaves(18))
	}
	return nil
}

// finishedWindow is how many finished jobs the manager keeps in memory.
// The oldest one past it is evicted: it leaves Jobs and its per-job
// series leave obs.Default, and its status and result are answered from
// the record store, so a long-lived daemon's footprint does not grow
// with the jobs it has served.
const finishedWindow = 64

// Manager runs jobs over one shared node pool. One Manager per
// process; cmd/satind serves it, tests drive it directly.
type Manager struct {
	cfg  Config
	grid satin.GridConfig // every job's deployment, before its Pool, Seed and period
	arb  *pool.Arbiter

	mu          sync.Mutex
	jobs        map[string]*Job // retained: unfinished and the finishedWindow newest finished
	order       []string        // retained job IDs in submission order
	finished    []string        // retained finished job IDs, oldest first
	queue       []*Job
	active      int
	minReserved int // sum of admitted jobs' MinNodes
	nextID      int
	draining    bool

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup // running jobs
	loop sync.WaitGroup // scheduler goroutine
}

// NewManager builds the shared pool and starts the admission
// scheduler.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	grid := satin.GridConfig{
		Clusters:   cfg.Clusters,
		LANLatency: cfg.LANLatency,
		WANLatency: cfg.WANLatency,
		Registry:   cfg.Registry,
		Node:       cfg.Node,
	}
	// The arbiter owns the whole topology — the conversion a grid does
	// for its private pool, so node IDs and bandwidth bounds match.
	arb, err := pool.New(grid.Topology(), pool.Config{})
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:  cfg,
		grid: grid,
		arb:  arb,
		jobs: make(map[string]*Job),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	m.loop.Add(1)
	go m.scheduler()
	return m, nil
}

// Capacity returns the pool's (non-dead) node count.
func (m *Manager) Capacity() int { return m.arb.Capacity() }

// Submit validates a spec and enqueues the job. Validation is strict:
// an unknown application, impossible node counts, or a disturbance
// naming an unknown cluster is rejected here, before the job holds
// anything.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	return m.SubmitJob(spec, Hooks{})
}

// SubmitJob is Submit with in-process hooks attached. A stated layout
// must fit the deployment, and its total becomes the spec's MinNodes.
func (m *Manager) SubmitJob(spec Spec, hooks Hooks) (*Job, error) {
	if hooks.Layout != nil {
		total, err := layoutTotal(hooks.Layout, m.cfg.Clusters)
		if err != nil {
			return nil, err
		}
		spec.MinNodes = total
	}
	if err := spec.check(m.cfg.Clusters, m.arb.Capacity()); err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, fmt.Errorf("service is draining, not accepting jobs")
	}
	m.nextID++
	id := jobID(m.nextID)
	j := newJob(id, spec, hooks, m.onState)
	if m.cfg.Seed != 0 {
		// Reproducible but distinct per job, and fixed here rather than at
		// admission: the submission index perturbs the service seed.
		j.seed = m.cfg.Seed + int64(m.nextID)
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	// Recorded before the scheduler can see the job, so that the store
	// holds the submission ahead of every state the job reaches: an
	// evicted job's answer starts at it. Recording never blocks.
	m.record(j, "job-submitted", map[string]any{
		"app": spec.App, "class": spec.Class, "size": spec.Size,
		"iters": spec.Iters, "min_nodes": spec.MinNodes, "adapt": spec.Adapt,
	})
	m.queue = append(m.queue, j)
	m.mu.Unlock()

	obs.Default.Counter("job/submitted").Inc()
	m.wakeUp()
	return j, nil
}

// check validates a submitted spec against the deployment (its clusters
// and their node capacity) and fills in the defaults: one iteration, one
// node. It builds nothing, so any problem size costs the same to check.
func (s *Spec) check(clusters []satin.ClusterSpec, capacity int) error {
	switch s.Class {
	case "", "batch":
		if s.Stream != nil {
			return fmt.Errorf("batch job carries a stream spec (submit with class=stream)")
		}
		if err := checkApp(s.App, s.Size); err != nil {
			return err
		}
	case "stream":
		if s.Stream == nil {
			return fmt.Errorf("stream job needs a pipeline spec")
		}
		if err := s.Stream.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown class %q (batch | stream)", s.Class)
	}
	if s.Iters == 0 {
		s.Iters = 1
	}
	if s.Iters < 0 {
		return fmt.Errorf("iters must be >= 1, got %d", s.Iters)
	}
	if s.Period < 0 {
		// A node's report ticker panics on a non-positive interval; 0
		// means the manager's period.
		return fmt.Errorf("period must be >= 0, got %v", s.Period)
	}
	if s.MinNodes == 0 {
		s.MinNodes = 1
	}
	if s.MinNodes < 0 || s.MinNodes > capacity {
		return fmt.Errorf("min nodes %d out of range (capacity %d)", s.MinNodes, capacity)
	}
	if s.MaxNodes != 0 && s.MaxNodes < s.MinNodes {
		return fmt.Errorf("max nodes %d below min nodes %d", s.MaxNodes, s.MinNodes)
	}
	for _, dist := range []map[string]float64{s.Shape, s.Load} {
		for name, v := range dist {
			if _, _, err := ParseKV(fmt.Sprintf("%s=%g", name, v), clusters); err != nil {
				return err
			}
		}
	}
	return nil
}

// layoutTotal checks that every cluster of a stated layout exists and
// has the nodes asked of it, so that provisioning cannot retry forever
// for nodes that do not exist, and returns the layout's node count.
func layoutTotal(layout, clusters []satin.ClusterSpec) (int, error) {
	total := 0
	for _, l := range layout {
		i := slices.IndexFunc(clusters, func(c satin.ClusterSpec) bool { return c.Name == l.Name })
		if i < 0 {
			return 0, fmt.Errorf("layout names unknown cluster %q", l.Name)
		}
		if l.Nodes < 1 || l.Nodes > clusters[i].Nodes {
			return 0, fmt.Errorf("layout asks for %d nodes of %s, which has %d", l.Nodes, l.Name, clusters[i].Nodes)
		}
		total += l.Nodes
	}
	return total, nil
}

func jobID(n int) string { return fmt.Sprintf("job-%03d", n) }

// Job returns a retained job by ID (nil if unknown or evicted).
func (m *Manager) Job(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// assigned reports whether this manager assigned the ID.
func (m *Manager) assigned(id string) bool {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || jobID(n) != id {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return n >= 1 && n <= m.nextID
}

// jobLookup is the record store's per-job query (*store.DB), reached
// through the recorder's sink.
type jobLookup interface {
	JobEvents(job string) ([]record.Event, error)
}

// archived answers for a job that is not in memory from the record
// store: its status and its job-result record. The store answers for
// the newest job of that ID in its run, so after a restart on the same
// run it also answers for the earlier daemon's jobs.
func (m *Manager) archived(id string) (JobStatus, jobRecord, error) {
	var lookup jobLookup
	if rec := m.cfg.Recorder; rec != nil {
		lookup, _ = rec.Sink().(jobLookup)
	}
	if lookup == nil {
		if m.assigned(id) {
			return JobStatus{}, jobRecord{}, fmt.Errorf("job %s evicted, no record store", id)
		}
		return JobStatus{}, jobRecord{}, fmt.Errorf("unknown job %q", id)
	}
	evs, err := lookup.JobEvents(id)
	if err != nil {
		return JobStatus{}, jobRecord{}, fmt.Errorf("job %s: %w", id, err)
	}
	if len(evs) == 0 && !m.assigned(id) {
		return JobStatus{}, jobRecord{}, fmt.Errorf("unknown job %q", id)
	}
	// The answer stands only when the submission leads and one
	// job-result ends the lifecycle: a row dropped on a full queue makes
	// the job evicted, never another job's state.
	var spec Spec
	var r jobRecord
	whole := len(evs) > 0 && evs[0].Kind == "job-submitted" && decodeStored(evs[0], &spec)
	results := 0
	for _, e := range evs {
		switch e.Kind {
		case "job-result":
			results++
			whole = whole && decodeStored(e, &r)
		case "job-state":
			whole = whole && results == 0
		}
	}
	if !whole || results != 1 {
		return JobStatus{}, jobRecord{}, fmt.Errorf("job %s evicted, its record is not in the store", id)
	}
	st := JobStatus{
		ID: id, App: spec.App, Class: spec.Class, Size: spec.Size, Iters: spec.Iters,
		State: r.State, Done: len(r.Iterations), Seconds: r.Seconds, Err: r.Err,
	}
	return st, r, nil
}

// decodeStored reads a stored event's JSON payload into v.
func decodeStored(e record.Event, v any) bool {
	raw, ok := e.Data.(json.RawMessage)
	return ok && json.Unmarshal(raw, v) == nil
}

// Jobs returns every retained job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job by ID.
func (m *Manager) Cancel(id string) error {
	j := m.Job(id)
	if j == nil {
		return fmt.Errorf("unknown job %q", id)
	}
	j.Cancel()
	m.wakeUp() // a cancelled queued job must leave the queue promptly
	return nil
}

// Drain stops admission, cancels queued jobs, and waits up to timeout
// for running jobs to finish; stragglers are cancelled. Returns how
// many jobs were cancelled.
func (m *Manager) Drain(timeout time.Duration) int {
	m.mu.Lock()
	m.draining = true
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()
	cancelled := 0
	for _, j := range queued {
		j.Cancel()
		j.setState(Cancelled)
		cancelled++
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		for _, j := range m.Jobs() {
			if !j.State().Terminal() {
				j.Cancel()
				cancelled++
			}
		}
		<-done // kills complete futures synchronously; jobs exit fast
	}
	return cancelled
}

// Close stops the scheduler. Call after Drain.
func (m *Manager) Close() {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if !draining {
		m.Drain(time.Second)
	}
	close(m.stop)
	m.loop.Wait()
}

func (m *Manager) wakeUp() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *Manager) record(j *Job, kind string, data any) {
	if m.cfg.Recorder == nil {
		return
	}
	// The job ID rides the event's own Job field so durable sinks can
	// index per-job timelines without digging through payloads.
	m.cfg.Recorder.RecordJob(j.ID, kind, data)
}

func (m *Manager) onState(j *Job, from, to State) {
	m.record(j, "job-state", map[string]any{"from": from.String(), "to": to.String()})
	if !to.Terminal() {
		return
	}
	if m.cfg.Recorder != nil {
		m.record(j, "job-result", j.record())
	}
	m.retire(j.ID)
}

// retire moves a finished job into the window and evicts the oldest
// finished job past it.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	m.finished = append(m.finished, id)
	var evicted string
	if len(m.finished) > finishedWindow {
		evicted = m.finished[0]
		m.finished = slices.Delete(m.finished, 0, 1)
		delete(m.jobs, evicted)
		if i := slices.Index(m.order, evicted); i >= 0 {
			m.order = slices.Delete(m.order, i, i+1)
		}
	}
	m.mu.Unlock()
	if evicted != "" {
		obs.Default.Remove(nodesSeries(evicted), itersSeries(evicted))
	}
}

// scheduler is the admission loop: FIFO over the queue, bounded by
// MaxActive and by the invariant that every admitted job's MinNodes
// must fit in capacity together — so no admitted set can deadlock
// waiting for nodes that cannot exist.
func (m *Manager) scheduler() {
	defer m.loop.Done()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		released := m.arb.Released()
		m.admit()
		select {
		case <-m.stop:
			return
		case <-m.wake:
		case <-released:
		case <-ticker.C:
		}
	}
}

func (m *Manager) admit() {
	var cancelled []*Job
	m.mu.Lock()
	for len(m.queue) > 0 {
		j := m.queue[0]
		if j.cancelled() {
			m.queue = m.queue[1:]
			cancelled = append(cancelled, j)
			continue
		}
		if m.active >= m.cfg.MaxActive || m.minReserved+j.Spec.MinNodes > m.arb.Capacity() {
			break
		}
		m.queue = m.queue[1:]
		m.active++
		m.minReserved += j.Spec.MinNodes
		m.wg.Add(1)
		go m.run(j)
	}
	m.mu.Unlock()
	// Outside the lock: a terminal transition retires the job, which
	// takes it.
	for _, j := range cancelled {
		j.setState(Cancelled)
	}
}

// run executes one job end to end: register with the pool, build a
// private deployment over the shared capacity, bid for nodes, run the
// iterations, clean up. Every exit path releases everything the job
// held.
func (m *Manager) run(j *Job) {
	defer func() {
		m.mu.Lock()
		m.active--
		m.minReserved -= j.Spec.MinNodes
		m.mu.Unlock()
		m.wakeUp()
		m.wg.Done()
	}()

	client, err := m.arb.Register(j.ID, j.Spec.Weight, j.Spec.MaxNodes)
	if err != nil {
		j.fail(err)
		return
	}
	defer client.Close()

	gridCfg := m.grid
	gridCfg.Pool = client
	gridCfg.Seed = j.seed
	period := j.Spec.Period
	if period == 0 {
		period = m.cfg.Period
	}
	if j.Spec.Adapt {
		gridCfg.Node.Coordinator = adapt.EndpointName
		gridCfg.Node.MonitorPeriod = period
	} else {
		// No coordinator reads a node's speed, so no node measures it:
		// the simulator's NoAdapt variant does not benchmark either.
		gridCfg.Node.Bench = nil
	}
	g, err := satin.NewGrid(gridCfg)
	if err != nil {
		j.fail(err)
		return
	}
	defer g.Close()
	j.attachGrid(g)
	j.setState(Provisioning)

	master, err := m.provision(j, g)
	if err != nil {
		j.fail(err)
		return
	}
	j.obsNodes.Set(float64(g.NodeCount()))

	var coord *adapt.Coordinator
	if j.Spec.Adapt {
		cfg := adapt.Config{
			Period:    period,
			Protected: []adapt.NodeID{master.ID()},
			// The job's coordinator bids for nodes through the shared
			// pool (g.Provision goes through the fair-share client) and
			// yields its surplus when other jobs starve.
			Pressure: client.Pressure,
		}
		if j.Spec.Class == "stream" {
			// Streaming jobs adapt to their latency SLO, not the WAE band;
			// the window driver (runStream) feeds the observations.
			cfg.StreamSLO = &adapt.StreamSLOConfig{TargetLatency: j.Spec.Stream.TargetLatency}
		}
		if rec := m.cfg.Recorder; rec != nil {
			id := j.ID
			cfg.Observer = func(pr adapt.PeriodRecord) {
				// Every tick lands as the job's period trajectory (the
				// replay tool reconstructs per-job health from these);
				// actions additionally land in the decision log.
				rec.RecordJob(id, "period", pr)
				if pr.Action != "" && pr.Action != "none" {
					rec.RecordJob(id, "decision", pr)
				}
			}
		}
		coord, err = adapt.Start(g.Fabric(), g, cfg)
		if err != nil {
			j.fail(err)
			return
		}
		defer func() {
			// The nodes go first: one that reports after its
			// sub-coordinator stopped finds no endpoint there.
			g.Halt()
			coord.Stop()
		}()
	}
	for name, bw := range j.Spec.Shape {
		g.Shape(satin.ClusterID(name), bw)
	}
	for name, f := range j.Spec.Load {
		g.SetClusterLoad(satin.ClusterID(name), f)
	}

	j.setState(Running)
	if j.Spec.Class == "stream" {
		if err := m.runStream(j, g, master, coord); err != nil {
			j.fail(err)
			return
		}
	} else if err := m.runBatch(j, g, master); err != nil {
		j.fail(err)
		return
	}
	// Final snapshots for in-process callers, taken while the
	// deployment is still alive.
	var reports []metrics.Report
	for _, n := range g.Nodes() {
		reports = append(reports, n.Report())
	}
	j.mu.Lock()
	j.result.NodeReports = reports
	j.mu.Unlock()
	if coord != nil {
		j.mu.Lock()
		j.result.Learned = coord.Requirements().String()
		j.result.History = coord.History()
		j.result.Annotations = coord.Annotations()
		j.mu.Unlock()
	}
	if j.cancelled() {
		j.setState(Cancelled)
		return
	}
	j.setState(Done)
}

// runBatch is the classic iterative loop: run the job's task Iters
// times on the master, recording each iteration's wall time.
func (m *Manager) runBatch(j *Job, g *satin.Grid, master *satin.Node) error {
	task, check, _ := BuildTask(j.Spec.App, j.Spec.Size) // validated at submit
	for i := 0; i < j.Spec.Iters; i++ {
		if j.cancelled() {
			break
		}
		start := time.Now()
		val, err := master.Run(task)
		if err != nil {
			// A closed grid (cancel, drain) surfaces here as a node-
			// stopped error; fail() sorts cancel from genuine failure.
			return fmt.Errorf("iteration %d: %w", i, err)
		}
		el := time.Since(start).Seconds()
		j.addIteration(el)
		j.setValue(val, check)
		nodes := g.NodeCount()
		j.obsNodes.Set(float64(nodes))
		m.record(j, "iteration", map[string]any{
			"i": i, "seconds": el, "nodes": nodes,
		})
		if j.hooks.OnIteration != nil {
			j.hooks.OnIteration(i, el, nodes)
		}
	}
	return nil
}

// provision bids for the job's MinNodes, retrying each time the shared
// pool frees nodes. It returns once the target is met, or — after
// ProvisionPatience — as soon as the job holds at least one node (the
// master); MinNodes is a target, not a barrier, exactly like the
// paper's runtime starting before all requested machines arrive.
func (m *Manager) provision(j *Job, g *satin.Grid) (*satin.Node, error) {
	target := j.Spec.MinNodes
	deadline := time.Now().Add(m.cfg.ProvisionPatience)
	patience := time.NewTimer(m.cfg.ProvisionPatience)
	defer patience.Stop()
	for {
		if j.cancelled() {
			return nil, fmt.Errorf("cancelled while provisioning")
		}
		released := m.arb.Released()
		deploy(g, j.hooks.Layout, target)
		n := g.NodeCount()
		if n >= target || (n >= 1 && !time.Now().Before(deadline)) {
			break
		}
		select {
		case <-j.cancelCh:
		case <-released:
		case <-patience.C:
		}
	}
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no nodes after provisioning")
	}
	// Deterministic master: the lowest node ID the job holds.
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].ID() < nodes[b].ID() })
	return nodes[0], nil
}

// deploy is one provisioning attempt towards the job's target. Without a
// layout the nodes come from the pool's locality order, the rule every
// later grow follows, so a job starts on as few clusters as it fits in
// and a partial fair-share grant is completed next to what it holds: a
// two-node job split over two clusters waits out a wide-area round trip
// per steal and is no faster than one node. A stated layout is started
// cluster by cluster. A node that failed to start is bid for again on
// the next attempt.
func deploy(g *satin.Grid, layout []satin.ClusterSpec, target int) {
	if layout == nil {
		if need := target - g.NodeCount(); need > 0 {
			g.Provision(need, 0, nil)
		}
		return
	}
	held := make(map[satin.ClusterID]int)
	for _, n := range g.Nodes() {
		held[n.Cluster()]++
	}
	for _, c := range layout {
		if need := c.Nodes - held[c.Name]; need > 0 {
			g.StartNodes(c.Name, need)
		}
	}
}
