package des

import (
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// The streaming workload class in virtual time (ISSUE 9): an open-loop
// source at the master's cluster emits items at Spec.RateHz into the
// first stage's queue; any idle node pulls the head of the deepest
// non-empty stage (drain-downstream-first keeps completed work moving
// and bounds in-pipeline inventory), pays the item's payload transfer
// when it crosses a network boundary, services the stage, and pushes
// the item into the next queue. The figure of merit is end-to-end
// latency: born at emission, stopped when the item leaves the last
// stage. Faults never stop an item's clock — a crashed node's item
// reappears at its stage's head only after crashDetect, which is
// exactly the latency spike the StreamSLO objective must adapt away.

// streamItem is one unit of work travelling the pipeline.
type streamItem struct {
	born  vtime.Time     // emission time — the latency clock's zero
	stage int            // next stage to service
	loc   core.ClusterID // cluster holding the item's payload
}

// streamState is the run-wide pipeline state.
type streamState struct {
	spec      *workload.StreamSpec
	emitted   int
	queues    [][]*streamItem // one FIFO per stage
	inFlight  int             // items currently being serviced
	completed int
	finished  bool

	// obsBy accumulates the per-cluster observation partials of the
	// current monitoring period: arrivals at the source's cluster,
	// completions (and latency) where the last stage ran. The
	// coordinator consumes and resets them each period — the streaming
	// analogue of metrics.Accumulator.Snapshot.
	obsBy map[core.ClusterID]*core.StreamObs
}

// backlog counts every item still inside the pipeline.
func (st *streamState) backlog() int {
	n := st.inFlight
	for _, q := range st.queues {
		n += len(q)
	}
	return n
}

// startStream switches the run into the streaming phase and opens the
// source.
func (s *Sim) startStream() {
	s.stream = &streamState{
		spec:   s.p.Stream,
		queues: make([][]*streamItem, len(s.p.Stream.Stages)),
		obsBy:  make(map[core.ClusterID]*core.StreamObs),
	}
	s.phase = phaseStream
	s.emitItem()
}

// sourceCluster is where items are born: the master's site (the user's
// process feeds the pipeline), falling back to the coordinator's.
func (s *Sim) sourceCluster() core.ClusterID {
	if s.master != nil {
		return s.master.cluster
	}
	return s.coordClst
}

// emitItem is the open-loop source: one item now, the next in 1/RateHz
// seconds, regardless of how far behind the pipeline is — that refusal
// to slow down is what turns overload into latency the SLO objective
// can see.
func (s *Sim) emitItem() {
	if s.done {
		return
	}
	st := s.stream
	it := &streamItem{born: s.k.Now(), loc: s.sourceCluster()}
	st.queues[0] = append(st.queues[0], it)
	st.emitted++
	s.streamObsFor(it.loc).Arrived++
	s.wakeStreamWorkers()
	if st.emitted < st.spec.Items {
		s.k.Post(1/st.spec.RateHz, func() { s.emitItem() })
	}
}

// wakeStreamWorkers offers queued items to every idle participant.
func (s *Sim) wakeStreamWorkers() {
	for _, n := range s.order {
		if n.joined && !n.gone() && !n.busy() {
			s.nodeIdle(n)
		}
	}
}

// streamDispatch is the idle node's pull: take the head of the deepest
// non-empty stage queue.
func (s *Sim) streamDispatch(n *simNode) {
	st := s.stream
	if st == nil || st.finished {
		return
	}
	for stage := len(st.queues) - 1; stage >= 0; stage-- {
		q := st.queues[stage]
		if len(q) == 0 {
			continue
		}
		it := q[0]
		st.queues[stage] = q[1:]
		it.stage = stage
		st.inFlight++
		s.streamRun(n, it)
		return
	}
}

// streamRun services one stage of one item on n: fetch the payload if
// it lives elsewhere (genuine network time, booked as intra/inter
// communication — the same signal the badness formula keys on for
// batch runs), then compute for WorkPerItem/effSpeed seconds.
func (s *Sim) streamRun(n *simNode, it *streamItem) {
	stg := s.stream.spec.Stages[it.stage]
	now := s.k.Now()
	start := now
	if stg.BytesPerItem > 0 {
		if it.loc == n.cluster {
			start = s.net.Intra(now, n.cluster, stg.BytesPerItem)
			s.addTime(n, metrics.Intra, float64(start-now))
		} else {
			start = s.net.Inter(now, it.loc, n.cluster, stg.BytesPerItem)
			wire := float64(start - now)
			s.addTime(n, metrics.Inter, wire)
			n.acc.AddInterBytes(stg.BytesPerItem)
			if wire > 0 {
				n.acc.AddLinkSample(it.loc, wire, stg.BytesPerItem)
			}
		}
	}
	dur := stg.WorkPerItem / n.effSpeed()
	n.curItem = it
	n.busyUntil = start + vtime.Time(dur)
	n.curDone = s.k.After(float64(start-now)+dur, func() {
		n.curDone = nil
		n.curItem = nil
		n.lastWorkAt = s.k.Now()
		s.addTime(n, metrics.Busy, dur)
		s.streamStageDone(n, it)
	})
}

// streamStageDone advances the item: into the next queue, or out of
// the pipeline with its latency recorded at the completing cluster.
func (s *Sim) streamStageDone(n *simNode, it *streamItem) {
	st := s.stream
	st.inFlight--
	it.stage++
	it.loc = n.cluster
	if it.stage >= len(st.spec.Stages) {
		st.completed++
		lat := float64(s.k.Now() - it.born)
		o := s.streamObsFor(n.cluster)
		o.Completed++
		o.LatencySum += lat
		s.res.StreamCompleted++
		s.res.StreamLatencySum += lat
		if lat > s.res.StreamMaxLatency {
			s.res.StreamMaxLatency = lat
		}
		if st.completed >= st.spec.Items {
			s.streamFinish()
			return
		}
	} else {
		st.queues[it.stage] = append(st.queues[it.stage], it)
	}
	s.nodeIdle(n)
}

// streamFinish ends the run: the last item left the last stage.
func (s *Sim) streamFinish() {
	s.stream.finished = true
	s.phase = phaseDone
	s.done = true
	s.res.Runtime = float64(s.k.Now())
	s.k.Stop()
}

// streamRequeue puts a displaced item (graceful leave, or crash after
// detection) back at the head of its stage's queue. The born clock is
// untouched: recomputation shows up as latency.
func (s *Sim) streamRequeue(it *streamItem) {
	st := s.stream
	if st == nil || st.finished {
		return
	}
	st.inFlight--
	st.queues[it.stage] = append([]*streamItem{it}, st.queues[it.stage]...)
	s.wakeStreamWorkers()
}

// streamObsFor returns (creating on first touch) a cluster's partial
// for the current monitoring period.
func (s *Sim) streamObsFor(c core.ClusterID) *core.StreamObs {
	o, ok := s.stream.obsBy[c]
	if !ok {
		o = &core.StreamObs{}
		s.stream.obsBy[c] = o
	}
	return o
}

// takeStreamObs drains the period's partials into one observation for
// the flat kernel, merging in sorted cluster order — the same order
// the sharded root merges summaries in, so both pipelines see
// bit-identical float sums.
func (s *Sim) takeStreamObs() core.StreamObs {
	st := s.stream
	keys := make([]core.ClusterID, 0, len(st.obsBy))
	for c := range st.obsBy {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var o core.StreamObs
	for _, c := range keys {
		o.Merge(*st.obsBy[c])
	}
	st.obsBy = make(map[core.ClusterID]*core.StreamObs)
	o.Backlog = st.backlog()
	return o
}
