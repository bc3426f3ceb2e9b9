package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/satin"
)

const (
	classShort    = "short"
	classAdaptive = "adaptive"

	serviceClients = 2
	callTimeout    = 30 * time.Second
)

var shortJob = job.Spec{App: "nqueens", Size: 8, MinNodes: 2}

// jobMix is one client's repeating sequence: four short jobs and one
// adaptive job, shuffled by the seed. Short jobs are almost all fixed
// per-job overhead (a deployment built and torn down per job); the
// adaptive job is the only place the live coordinator, pool
// arbitration and registry joins under load are exercised.
func jobMix(cfg runConfig, client int) []job.Spec {
	short := shortJob
	adaptive := job.Spec{App: "fib", Size: 19, Iters: 4, MinNodes: 2, Adapt: true, Period: 100 * time.Millisecond}
	if cfg.smoke {
		adaptive.Size, adaptive.Iters = 14, 2
	}
	mix := []job.Spec{short, short, short, short, adaptive}
	rng := rand.New(rand.NewSource(cfg.seed*int64(serviceClients) + int64(client)))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

func classOf(spec job.Spec) string {
	if spec.Adapt {
		return classAdaptive
	}
	return classShort
}

// service is the satind stack in process: the job manager over a
// shared pool with its recorder teeing into a durable store, served
// over a TCP hub on loopback, and the clients dialled into it.
type service struct {
	dir     string
	dbPath  string
	rec     *record.Recorder
	db      *store.DB
	manager *job.Manager
	hub     *transport.TCPHub
	server  *job.Server
	clients []*job.Ctl
}

func startService(cfg runConfig, tr *tracer) (*service, error) {
	sp := tr.begin("service.start", 0, 0)
	defer tr.end(sp)
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(resultsDir, "service-*")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, dbPath: filepath.Join(dir, "record.db"), rec: record.New(4096, 1024)}
	ok := false
	defer func() {
		if !ok {
			s.stop(nil)
			os.RemoveAll(dir)
		}
	}()
	if s.db, err = store.Open(s.dbPath, "bench", obs.Default); err != nil {
		return nil, err
	}
	s.rec.SetSink(s.db)
	s.manager, err = job.NewManager(job.Config{
		Clusters: []satin.ClusterSpec{{Name: "fs0", Nodes: 4}, {Name: "fs1", Nodes: 4}},
		Recorder: s.rec,
		Seed:     cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	if s.hub, err = transport.NewTCPHub("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if s.server, err = job.Serve(transport.NewTCP(s.hub.Addr()), s.manager); err != nil {
		return nil, err
	}
	for i := 0; i < serviceClients; i++ {
		ctl, err := job.Dial(transport.NewTCP(s.hub.Addr()), fmt.Sprintf("ctl-%d", i))
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, ctl)
	}
	// Warm-up: one short job per client.
	for i, ctl := range s.clients {
		if !runJob(ctl, shortJob, "ok", opTrace{}) {
			return nil, fmt.Errorf("warm-up job of client %d failed", i)
		}
	}
	ok = true
	return s, nil
}

// stop shuts the stack down in satind's order; the store drains and
// syncs last.
func (s *service) stop(tr *tracer) error {
	for _, ctl := range s.clients {
		ctl.Close()
	}
	if s.manager != nil {
		s.manager.Drain(5 * time.Second)
		s.manager.Close()
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	if s.db == nil {
		return nil
	}
	sp := tr.begin("store.close", 0, 0)
	defer tr.end(sp)
	return s.db.Close()
}

// runJob submits a job and waits for its result, as satinrun does, and
// checks the result against want.
func runJob(ctl *job.Ctl, spec job.Spec, want string, ot opTrace) bool {
	sp := ot.begin("ctl.submit")
	jid, err := ctl.Submit(spec, callTimeout)
	ot.end(sp)
	if err != nil {
		return false
	}
	sp = ot.begin("ctl.result")
	reply, err := ctl.Result(jid, true, callTimeout)
	ot.end(sp)
	return err == nil && reply.State == "done" && reply.Check == want
}

func runService(cfg runConfig, r *report, tr *tracer) error {
	// Set-up, repeated: start the stack, dial, one warm-up job per
	// client. The last stack is the measured one.
	var setup []float64
	var svc *service
	for i := 0; i < cfg.setupReps(); i++ {
		if svc != nil {
			if err := svc.stop(nil); err != nil {
				return err
			}
			os.RemoveAll(svc.dir)
		}
		t0 := time.Now()
		var err error
		if svc, err = startService(cfg, tr); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(svc.dir)

	mixes := make([][]job.Spec, serviceClients)
	for i := range mixes {
		mixes[i] = jobMix(cfg, i)
	}
	eventsFrom := svc.rec.Now()
	p := timedPhase(cfg.seconds, serviceClients, tr, func(client, i int, ot opTrace) (string, bool) {
		spec := mixes[client][i%len(mixes[client])]
		want := "ok"
		if cfg.expectWrong(i) {
			want = "wrong on purpose"
		}
		return classOf(spec), runJob(svc.clients[client], spec, want, ot)
	})
	events := svc.rec.Events()
	if err := svc.stop(tr); err != nil {
		return fmt.Errorf("store close: %w", err)
	}

	// Read the store back once, as cmd/replay would, and check that it
	// holds every job the clients ran.
	sp := tr.begin("store.readlog", 0, 0)
	logDoc, err := store.ReadLog(svc.dbPath)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("store read-back: %w", err)
	}
	submitted := p.attempted + serviceClients // plus the warm-up jobs
	if got := len(logDoc.Jobs("bench")); got != submitted {
		return fmt.Errorf("store holds %d jobs, clients submitted %d", got, submitted)
	}

	reportCommon(r, cfg, p, setup, classShort)
	short, adaptive := p.lat(classShort), p.lat(classAdaptive)
	if len(short) > 0 {
		r.set("job_short_p50_ms", median(short), len(short))
		r.set("job_short_p95_ms", percentile(short, 95), len(short))
	}
	if len(adaptive) > 0 {
		r.set("job_adaptive_p50_ms", median(adaptive), len(adaptive))
		r.set("job_adaptive_p90_ms", percentile(adaptive, 90), len(adaptive))
	}
	if !cfg.trace {
		return nil
	}

	reportRegistryCounts(r, p)
	r.setOpt("job.submit_rtt_ms", medianOf(tr.durations("ctl.submit")))
	r.setOpt("job.result_wait_ms", medianOf(tr.durations("ctl.result")))
	reportJobEvents(r, events, eventsFrom)
	jobs := float64(p.attempted)
	rows, dropped := p.reg.counter("store/rows_written"), p.reg.counter("store/dropped_rows")
	r.setOpt("store.rows_per_job", rows.per(jobs))
	r.setOpt("store.dropped_share", dropped.per(sum(rows, dropped).v))
	if st, err := os.Stat(svc.dbPath); err == nil {
		r.set("store.bytes_per_job", float64(st.Size())/float64(submitted), submitted)
	}
	return nil
}

// reportJobEvents breaks a short job's turnaround into the lifecycle
// phases the recorder logged, and counts the adaptive jobs' coordinator
// ticks. Only jobs submitted inside the timed phase count.
func reportJobEvents(r *report, events []record.Event, from float64) {
	var timed []record.Event
	adaptive := make(map[string]bool)
	for _, e := range events {
		if e.Time < from {
			continue
		}
		timed = append(timed, e)
		if e.Kind == "job-submitted" {
			if data, _ := e.Data.(map[string]any); data["adapt"] == true {
				adaptive[e.Job] = true
			}
		}
	}
	var queued, provisioning, running []float64
	for id, ph := range readJobPhases(timed) {
		if adaptive[id] {
			continue
		}
		queued = append(queued, ph.queued)
		provisioning = append(provisioning, ph.provisioning)
		running = append(running, ph.running)
	}
	r.setOpt("job.queued_ms", medianOf(queued))
	r.setOpt("job.provisioning_ms", medianOf(provisioning))
	r.setOpt("job.running_ms", medianOf(running))

	var ticks []float64
	for id, n := range countEvents(timed, "period") {
		if adaptive[id] {
			ticks = append(ticks, float64(n))
		}
	}
	if len(ticks) > 0 {
		total := 0.0
		for _, t := range ticks {
			total += t
		}
		r.set("adapt.ticks_per_job", total/float64(len(ticks)), len(ticks))
	} else {
		r.put(metric{Name: "adapt.ticks_per_job"})
	}
}
