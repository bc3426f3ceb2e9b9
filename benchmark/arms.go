package main

// Per-layer arms: the harness calls one layer's public functions
// directly, on inputs shaped like the workloads', and times them. Each
// arm repeats armReps times; the report carries median, min and MAD.
// Arms use only the API the production path is meant to keep: NextView
// (not Engine.Next), wirefmt.Frame codecs (not the session-gob path),
// no relay-mode sub-coordinators and no obs aliases.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/record"
	"repro/internal/registry"
	"repro/internal/steal"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vtime"
	"repro/internal/wirefmt"
	"repro/satin"
)

// spawnN spawns N trivial children and syncs: spawn/sync with no work
// in the leaves.
type spawnN struct{ N int }

func (s spawnN) Execute(ctx *satin.Context) (any, error) {
	for i := 0; i < s.N; i++ {
		ctx.Spawn(nop{})
	}
	return s.N, ctx.Sync()
}

type nop struct{}

func (nop) Execute(*satin.Context) (any, error) { return nil, nil }

func init() {
	satin.Register(spawnN{})
	satin.Register(nop{})
}

// armOut collects each metric's repetitions. An arm that cannot run
// (a listener refused, a grid failed to start) records nothing and its
// metrics print null.
type armOut map[string][]float64

func (o armOut) add(name string, v float64) { o[name] = append(o[name], v) }

// per is the cost of one of n operations, in units of unit.
func per(el time.Duration, n int, unit time.Duration) float64 {
	return float64(el) / float64(unit) / float64(n)
}

type arm struct {
	name string
	run  func(reps, scale int, out armOut) error
}

var arms = []arm{
	{"deque", armDeque},
	{"satin.spawn_sync", armSpawnSync},
	{"satin.grid", armGridLifecycle},
	{"steal.nextview", armNextView},
	{"wirefmt", armWirefmt},
	{"wire", armWire},
	{"transport.inproc", armInProc},
	{"transport.tcp", armTCP},
	{"registry.join", armRegistryJoin},
	{"pool", armPool},
	{"core", armCore},
	{"coord", armCoord},
	{"vtime", armVtime},
	{"record.store.obs", armRecordStoreObs},
}

// runArms executes every arm and stores its metrics. A failing arm is
// reported on standard error and leaves its metrics null; it never
// fails the run.
func runArms(cfg runConfig, r *report, tr *tracer) {
	// scale divides every arm's iteration count in smoke mode.
	scale := 1
	if cfg.smoke {
		scale = 20
	}
	out := make(armOut)
	for _, a := range arms {
		sp := tr.begin("arm/"+a.name, 0, 0)
		err := a.run(cfg.armReps(), scale, out)
		tr.end(sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: arm %s: %v\n", a.name, err)
		}
	}
	for name, reps := range out {
		r.setArm(name, reps)
	}
}

func armDeque(reps, scale int, out armOut) error {
	n := 200000 / scale
	const batch = 4096
	for rep := 0; rep < reps; rep++ {
		d := deque.New[int]()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.Push(i)
			if _, ok := d.PopBottom(); !ok {
				return fmt.Errorf("deque lost an element")
			}
		}
		out.add("deque.push_pop_ns", per(time.Since(t0), n, time.Nanosecond))

		var stealing time.Duration
		stolen := 0
		for stolen < n {
			for i := 0; i < batch; i++ {
				d.Push(i)
			}
			t0 = time.Now()
			for i := 0; i < batch; i++ {
				if _, ok := d.Steal(); !ok {
					return fmt.Errorf("deque refused a steal")
				}
			}
			stealing += time.Since(t0)
			stolen += batch
		}
		out.add("deque.steal_ns", per(stealing, stolen, time.Nanosecond))
	}
	return nil
}

func armSpawnSync(reps, scale int, out armOut) error {
	n := 60 / scale
	if n < 2 {
		n = 2
	}
	g, err := satin.NewGrid(satin.GridConfig{Clusters: []satin.ClusterSpec{{Name: "c0", Nodes: 1}}})
	if err != nil {
		return err
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		return err
	}
	task := spawnN{N: 256}
	for rep := 0; rep < reps+1; rep++ { // the first repetition warms up
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if v, err := nodes[0].Run(task); err != nil || v != task.N {
				return fmt.Errorf("spawn/sync returned %v, %v", v, err)
			}
		}
		if rep > 0 {
			out.add("satin.spawn_sync_us", per(time.Since(t0), n, time.Microsecond))
		}
	}
	return nil
}

// armGridLifecycle times what a job of the service pays per job: a 2x2
// deployment built until its first Run returns, and torn down.
func armGridLifecycle(reps, _ int, out armOut) error {
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		g, err := satin.NewGrid(satin.GridConfig{Clusters: []satin.ClusterSpec{
			{Name: "c0", Nodes: 2}, {Name: "c1", Nodes: 2},
		}})
		if err != nil {
			return err
		}
		for _, c := range []satin.ClusterID{"c0", "c1"} {
			if _, err := g.StartNodes(c, 2); err != nil {
				g.Close()
				return err
			}
		}
		if _, err := g.Node("c0/00").Run(nop{}); err != nil {
			g.Close()
			return err
		}
		started := time.Now()
		g.Close()
		out.add("satin.grid_start_ms", ms(started.Sub(t0)))
		out.add("satin.grid_close_ms", ms(time.Since(started)))
	}
	return nil
}

// armNextView times one CRS round (victim choice plus settling both
// slots) against a pre-indexed view of 16 and of 2,000 members.
func armNextView(reps, scale int, out armOut) error {
	n := 200000 / scale
	for _, size := range []struct {
		name                 string
		clusters, perCluster int
	}{{"steal.nextview_16_ns", 2, 8}, {"steal.nextview_2000_ns", 40, 50}} {
		var members []steal.Member
		for c := 0; c < size.clusters; c++ {
			for i := 0; i < size.perCluster; i++ {
				cl := core.ClusterID(fmt.Sprintf("c%02d", c))
				members = append(members, steal.Member{ID: topo.NodeName(cl, i), Cluster: cl})
			}
		}
		view := steal.NewView()
		view.Rebuild(members)
		eng := steal.New(steal.CRS, members[0].ID, members[0].Cluster, 1)
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				d := eng.NextView(float64(i), view)
				if d.HasSync {
					eng.SyncDone(false)
				}
				if d.HasAsync {
					eng.AsyncDone(false)
				}
			}
			out.add(size.name, per(time.Since(t0), n, time.Nanosecond))
		}
	}
	return nil
}

// benchSummary is one cluster's summary as the big-grid configuration
// sends it: mid-band efficiency (the tick never acts) and 8 proposals.
func benchSummary(i, nodes int) coord.ClusterSummary {
	c := core.ClusterID(fmt.Sprintf("c%04d", i))
	n := float64(nodes)
	sum := coord.ClusterSummary{
		Cluster: c, Seq: 1, Time: 100, Nodes: nodes, Stats: nodes,
		SpeedMax: 100, SpeedMin: 100,
		WorkSum: 40 * n, EffSum: 0.4 * n, SpeedSum: 100 * n, InterSum: 0.05 * n,
	}
	for p := 0; p < 8; p++ {
		sum.Proposals = append(sum.Proposals, coord.NodeSample{
			Node: core.NodeID(fmt.Sprintf("%s-n%03d", c, p)), Speed: 100, Idle: 0.55, InterComm: 0.05,
		})
	}
	return sum
}

func armWirefmt(reps, scale int, out armOut) error {
	n := 100000 / scale
	sum := benchSummary(7, 100)
	req := job.SubmitRequest{Token: 42, Spec: job.Spec{App: "nqueens", Size: 8, MinNodes: 2}}
	frames := []struct {
		name   string
		enc    wirefmt.Frame
		decode func(r *wirefmt.Reader) error
	}{
		{"wirefmt.summary", &sum, func(r *wirefmt.Reader) error { var v coord.ClusterSummary; return v.DecodeWire(r) }},
		{"wirefmt.request", &req, func(r *wirefmt.Reader) error { var v job.SubmitRequest; return v.DecodeWire(r) }},
	}
	for _, f := range frames {
		for rep := 0; rep < reps; rep++ {
			var buf []byte
			var err error
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if buf, err = f.enc.AppendWire(buf[:0]); err != nil {
					return err
				}
			}
			out.add(f.name+"_encode_ns", per(time.Since(t0), n, time.Nanosecond))
			t0 = time.Now()
			for i := 0; i < n; i++ {
				r := wirefmt.NewReader(buf)
				if err := f.decode(&r); err != nil {
					return err
				}
			}
			out.add(f.name+"_decode_ns", per(time.Since(t0), n, time.Nanosecond))
		}
	}
	return nil
}

// armWire sends bursts of 32 typed frames through the binary codec and
// an ideal in-process fabric and waits for all 32 to be dispatched,
// once frame by frame and once with per-destination batching.
func armWire(reps, scale int, out armOut) error {
	const burst = 32
	bursts := 100 / scale
	if bursts < 2 {
		bursts = 2
	}
	for _, mode := range []struct {
		name string
		opts []wire.Option
	}{
		{"wire.roundtrip_inproc_us", nil},
		{"wire.roundtrip_batched_us", []wire.Option{wire.WithBatching(wire.BatchConfig{})}},
	} {
		f := transport.NewInProc(nil)
		epA, err := f.Endpoint("a")
		if err != nil {
			return err
		}
		epB, err := f.Endpoint("b")
		if err != nil {
			return err
		}
		ca, cb := wire.New(epA, mode.opts...), wire.New(epB)
		got := make(chan struct{}, burst) // one slot per frame of a burst
		wire.Handle(cb, func(job.PingRequest, wire.Meta) { got <- struct{}{} })
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			for b := 0; b < bursts; b++ {
				for i := 0; i < burst; i++ {
					if err := wire.Send(ca, "b", job.PingRequest{Token: uint64(i)}); err != nil {
						return err
					}
				}
				for i := 0; i < burst; i++ {
					<-got
				}
			}
			out.add(mode.name, per(time.Since(t0), bursts*burst, time.Microsecond))
		}
		ca.Close()
		cb.Close()
		f.Close()
	}
	return nil
}

// pair is two endpoints on one fabric: b echoes "echo" frames back to
// a and counts "bulk" frames. Every ping carries a fresh sequence
// number, so the echo of a retried or lost ping is never mistaken for
// the awaited one.
type pair struct {
	a, b   transport.Endpoint
	seq    uint64
	want   atomic.Uint64
	echoed chan struct{}
	bulk   atomic.Int64
	every  int64         // signal received after this many bulk frames
	gotAll chan struct{} // one token per completed bulk batch
}

func newPair(f transport.Fabric, bulkBatch int) (*pair, error) {
	a, err := f.Endpoint("a")
	if err != nil {
		return nil, err
	}
	b, err := f.Endpoint("b")
	if err != nil {
		a.Close()
		return nil, err
	}
	p := &pair{a: a, b: b, echoed: make(chan struct{}, 1), every: int64(bulkBatch), gotAll: make(chan struct{}, 1)}
	a.SetHandler(func(m transport.Message) {
		if len(m.Payload) == 8 && binary.LittleEndian.Uint64(m.Payload) == p.want.Load() {
			select {
			case p.echoed <- struct{}{}:
			default:
			}
		}
	})
	b.SetHandler(func(m transport.Message) {
		switch m.Kind {
		case "echo":
			_ = b.Send(m.From, m.Kind, m.Payload)
		case "bulk":
			if p.bulk.Add(1)%p.every == 0 {
				p.gotAll <- struct{}{}
			}
		}
	})
	// A hub drops frames to a name it has not seen register yet: ping
	// until the first echo proves both directions route.
	deadline := time.Now().Add(5 * time.Second)
	for !p.ping(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			p.close()
			return nil, fmt.Errorf("no echo within 5s")
		}
	}
	return p, nil
}

func (p *pair) close() { p.a.Close(); p.b.Close() }

// ping sends one frame to b and waits for its echo.
func (p *pair) ping(timeout time.Duration) bool {
	p.seq++
	p.want.Store(p.seq)
	if err := p.a.Send("b", "echo", binary.LittleEndian.AppendUint64(nil, p.seq)); err != nil {
		return false
	}
	select {
	case <-p.echoed:
		return true
	case <-time.After(timeout):
		return false
	}
}

// rtt is the mean round trip (us) over n pings.
func (p *pair) rtt(n int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if !p.ping(5 * time.Second) {
			return 0, fmt.Errorf("echo %d lost", i)
		}
	}
	return per(time.Since(t0), n, time.Microsecond), nil
}

func armInProc(reps, scale int, out armOut) error {
	n := 4000 / scale
	f := transport.NewInProc(nil)
	defer f.Close()
	p, err := newPair(f, 1)
	if err != nil {
		return err
	}
	defer p.close()
	for rep := 0; rep < reps; rep++ {
		us, err := p.rtt(n)
		if err != nil {
			return err
		}
		out.add("transport.inproc_rtt_us", us)
	}
	return nil
}

// armTCP measures the hub-routed fabric over loopback: the round trip
// of an 8-byte frame, and the throughput of 64 KiB frames.
func armTCP(reps, scale int, out armOut) error {
	n := 400 / scale
	frames := 200 / scale
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hub.Close()
	p, err := newPair(transport.NewTCP(hub.Addr()), frames)
	if err != nil {
		return err
	}
	defer p.close()
	payload := make([]byte, 64<<10)
	for rep := 0; rep < reps; rep++ {
		us, err := p.rtt(n)
		if err != nil {
			return err
		}
		out.add("transport.tcp_rtt_us", us)

		t0 := time.Now()
		for i := 0; i < frames; i++ {
			if err := p.a.Send("b", "bulk", payload); err != nil {
				return err
			}
		}
		select {
		case <-p.gotAll:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("bulk frames lost (%d arrived)", p.bulk.Load())
		}
		out.add("transport.tcp_mb_s", float64(frames*len(payload))/1e6/time.Since(t0).Seconds())
	}
	return nil
}

// armRegistryJoin times Join until the new member is visible on a peer
// that joined earlier, over an ideal in-process fabric.
func armRegistryJoin(reps, _ int, out armOut) error {
	f := transport.NewInProc(nil)
	defer f.Close()
	srv, err := registry.NewServer(f, registry.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	peer, err := registry.Join(f, registry.NodeInfo{ID: "c0/00", Cluster: "c0"}, registry.Options{})
	if err != nil {
		return err
	}
	defer peer.Close()
	for rep := 0; rep < reps; rep++ {
		id := topo.NodeName("c0", rep+1)
		t0 := time.Now()
		c, err := registry.Join(f, registry.NodeInfo{ID: id, Cluster: "c0"}, registry.Options{})
		if err != nil {
			return err
		}
		for seen := false; !seen; {
			select {
			case ev := <-peer.Events():
				seen = ev.Kind == registry.Joined && ev.Node.ID == id
			case <-time.After(5 * time.Second):
				c.Close()
				return fmt.Errorf("peer never saw %s join", id)
			}
		}
		out.add("registry.join_ms", ms(time.Since(t0)))
		c.Close()
	}
	return nil
}

// uniformTopo is clusters of equal size on healthy links, named by
// idFormat (node names seed the steal streams, so names matter).
func uniformTopo(idFormat string, clusters, perCluster int) topo.Topology {
	var t topo.Topology
	for i := 0; i < clusters; i++ {
		t.Clusters = append(t.Clusters, topo.Cluster{
			ID: core.ClusterID(fmt.Sprintf(idFormat, i)), Nodes: perCluster, Speed: 1,
			LANLatency: topo.LANLatency, LANBandwidth: topo.FastEthernetBandwidth,
			WANLatency: topo.WANLatencyOneWay, UplinkBandwidth: topo.BackboneUplink,
		})
	}
	return t
}

// armPool times a grant and its release: for a lone client on the
// service's 2x4 pool, and for one of 100 registered clients that each
// hold part of a 1,000-node pool.
func armPool(reps, scale int, out armOut) error {
	n := 20000 / scale
	lone, err := pool.New(uniformTopo("fs%d", 2, 4), pool.Config{})
	if err != nil {
		return err
	}
	c, err := lone.Register("job-000", 1, 0)
	if err != nil {
		return err
	}
	crowd, err := pool.New(uniformTopo("fs%d", 10, 100), pool.Config{})
	if err != nil {
		return err
	}
	var bidder *pool.Client
	for i := 0; i < 100; i++ {
		cl, err := crowd.Register(fmt.Sprintf("job-%03d", i), 1, 0)
		if err != nil {
			return err
		}
		if got := cl.RequestBandwidth(5, nil, nil, 0); len(got) != 5 {
			return fmt.Errorf("client %d was granted %d of 5 nodes", i, len(got))
		}
		bidder = cl
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			refs := c.AcquireN("fs0", 1)
			if len(refs) != 1 {
				return fmt.Errorf("lone client was refused a node")
			}
			c.Release(refs[0])
		}
		out.add("pool.acquire_release_us", per(time.Since(t0), n, time.Microsecond))
		t0 = time.Now()
		for i := 0; i < n/10; i++ {
			refs := bidder.RequestBandwidth(1, nil, nil, 0)
			if len(refs) != 1 {
				return fmt.Errorf("bidder was refused a node")
			}
			bidder.Release(refs[0])
		}
		out.add("pool.arbitrate_100_us", per(time.Since(t0), n/10, time.Microsecond))
	}
	return nil
}

// midBandStats is 1,000 nodes in 20 clusters at an efficiency inside
// the band, so nothing ranked or ticked on them triggers an action.
func midBandStats() []core.NodeStats {
	stats := make([]core.NodeStats, 1000)
	for i := range stats {
		cl := core.ClusterID(fmt.Sprintf("c%02d", i/50))
		stats[i] = core.NodeStats{
			Node: topo.NodeName(cl, i%50), Cluster: cl,
			Speed: 1 + float64(i%7), Idle: 0.3, IntraComm: 0.05, InterComm: float64(i%4) * 0.05,
		}
	}
	return stats
}

func armCore(reps, scale int, out armOut) error {
	n := 2000 / scale
	stats := midBandStats()
	w := core.DefaultBadnessWeights()
	var sink float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += core.WeightedAverageEfficiency(stats)
		}
		out.add("core.wae_ns", per(time.Since(t0), n, time.Nanosecond))
		t0 = time.Now()
		for i := 0; i < n/10; i++ {
			sink += float64(len(core.RankNodes(stats, w)))
		}
		out.add("core.rank_us", per(time.Since(t0), n/10, time.Microsecond))
	}
	if sink == 0 {
		return fmt.Errorf("core arms computed nothing")
	}
	return nil
}

// idleActuator satisfies coord.Actuator and coord.RootActuator with
// no-ops: the benchmarked worlds sit mid-band, so no tick ever acts.
type idleActuator struct{}

func (idleActuator) Provision(int, float64, coord.Veto) int    { return 0 }
func (idleActuator) Evict([]core.NodeID, string) []core.NodeID { return nil }
func (idleActuator) ObservedBandwidth(core.ClusterID) float64  { return 0 }
func (idleActuator) Annotate(string)                           {}
func (idleActuator) ClusterNodes(core.ClusterID) []core.NodeID { return nil }

// midBandReport is one node's period at efficiency 0.45.
func midBandReport(node core.NodeID, cluster core.ClusterID) metrics.Report {
	return metrics.Report{
		Node: node, Cluster: cluster, Start: 0, End: 100,
		BusySec: 45, IdleSec: 55, Speed: 100,
	}
}

func armCoord(reps, scale int, out armOut) error {
	n := 40 / scale
	if n < 2 {
		n = 2
	}
	ecfg := core.DefaultConfig()

	flat, err := coord.New(coord.Config{Engine: &ecfg}, idleActuator{})
	if err != nil {
		return err
	}
	var live []core.NodeID
	for i := 0; i < 1000; i++ {
		cl := core.ClusterID(fmt.Sprintf("c%02d", i/50))
		id := topo.NodeName(cl, i%50)
		live = append(live, id)
		flat.Report(midBandReport(id, cl))
	}

	root, err := coord.NewRoot(coord.Config{Engine: &ecfg}, idleActuator{})
	if err != nil {
		return err
	}
	var clusters []core.ClusterID
	for i := 0; i < 100; i++ {
		sum := benchSummary(i, 100)
		clusters = append(clusters, sum.Cluster)
		root.Ingest(sum)
	}

	sub := coord.NewSubKernel("c00", 8, core.DefaultBadnessWeights())
	var subLive []core.NodeID
	for i := 0; i < 100; i++ {
		subLive = append(subLive, topo.NodeName("c00", i))
	}

	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if rec := flat.Tick(100, live); rec.Action != "none" {
				return fmt.Errorf("flat tick acted: %s (%s)", rec.Action, rec.Detail)
			}
		}
		out.add("coord.flat_tick_us", per(time.Since(t0), n, time.Microsecond))

		t0 = time.Now()
		for i := 0; i < n*10; i++ {
			if rec := root.Tick(100, clusters, 10000); rec.Action != "none" {
				return fmt.Errorf("root tick acted: %s (%s)", rec.Action, rec.Detail)
			}
		}
		out.add("coord.root_tick_us", per(time.Since(t0), n*10, time.Microsecond))

		var summarizing time.Duration
		for i := 0; i < n*5; i++ {
			for _, id := range subLive {
				sub.Report(midBandReport(id, "c00"))
			}
			t0 = time.Now()
			if sum := sub.Summarize(100, subLive); sum.Stats != len(subLive) {
				return fmt.Errorf("sub summarized %d of %d reports", sum.Stats, len(subLive))
			}
			summarizing += time.Since(t0)
		}
		out.add("coord.sub_summarize_us", per(summarizing, n*5, time.Microsecond))
	}
	return nil
}

// armVtime schedules timers over a queue of 10,000 pending ones, cancels
// every second one and fires the rest.
func armVtime(reps, scale int, out armOut) error {
	n := 200000 / scale
	for rep := 0; rep < reps; rep++ {
		sim := vtime.New(1)
		rng := rand.New(rand.NewSource(1))
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < 10000; i++ {
			sim.After(rng.Float64()*100, fn)
		}
		t0 := time.Now()
		for i := 0; i < n/2; i++ {
			sim.After(rng.Float64()*100, fn)
			sim.After(rng.Float64()*100, fn).Cancel()
			sim.Step()
		}
		el := time.Since(t0)
		if fired != n/2 {
			return fmt.Errorf("vtime fired %d of %d timers", fired, n/2)
		}
		out.add("vtime.events_per_s", float64(n)/el.Seconds())
	}
	return nil
}

// armRecordStoreObs times the observability path: sampling the
// process's registry as the workload left it, the store's producer
// side, its drain-and-sync on Close, reading a log back, and the
// registry's own hot and cold operations.
func armRecordStoreObs(reps, scale int, out armOut) error {
	n := 2000 / scale
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(resultsDir, "arm-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := record.New(64, 64)
	counter := obs.NewRegistry().Counter("bench/arm")
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < 50; i++ {
			rec.Sample(obs.Default)
		}
		out.add("record.sample_us", per(time.Since(t0), 50, time.Microsecond))
		t0 = time.Now()
		for i := 0; i < 50; i++ {
			_ = obs.Default.Snapshot()
		}
		out.add("obs.snapshot_us", per(time.Since(t0), 50, time.Microsecond))
		t0 = time.Now()
		for i := 0; i < n*500; i++ {
			counter.Inc()
		}
		out.add("obs.counter_inc_ns", per(time.Since(t0), n*500, time.Nanosecond))

		path := filepath.Join(dir, fmt.Sprintf("arm-%d.db", rep))
		db, err := store.Open(path, "arm", obs.NewRegistry(), store.Options{QueueSize: 2 * n})
		if err != nil {
			return err
		}
		ev := record.Event{Kind: "iteration", Job: "job-001", Data: map[string]any{"i": 1, "seconds": 0.0123, "nodes": 2}}
		t0 = time.Now()
		for i := 0; i < n; i++ {
			ev.Time = float64(i)
			db.PutEvent(ev)
		}
		out.add("store.put_ns", per(time.Since(t0), n, time.Nanosecond))
		t0 = time.Now()
		if err := db.Close(); err != nil {
			return err
		}
		out.add("store.close_flush_ms", ms(time.Since(t0)))
		t0 = time.Now()
		logDoc, err := store.ReadLog(path)
		if err != nil {
			return err
		}
		out.add("store.readlog_ms", ms(time.Since(t0)))
		if got := len(logDoc.Events("arm", "job-001")); got != n {
			return fmt.Errorf("store kept %d of %d events", got, n)
		}
	}
	return nil
}
