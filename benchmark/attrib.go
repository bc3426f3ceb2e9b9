package main

// fibTasks is the number of tasks one apps.Fib op spawns and runs.
func fibTasks(n, cutoff int) float64 {
	if n <= cutoff || n < 2 {
		return 1
	}
	return 1 + fibTasks(n-1, cutoff) + fibTasks(n-2, cutoff)
}

// attribute builds the "where the time goes" table from outside: for
// each layer, (count per op x that layer's arm cost) / op_p50_ms. The
// arms run on ideal links and idle cores, so emulated link latency,
// sleeping leaves, application work and waiting all land in
// unexplained_share; a share is an estimate of the layer's own code on
// the op's path, not a profile. A count that is absent contributes
// nothing and shows as a larger unexplained share.
func attribute(r *report) {
	op := r.get("op_p50_ms")
	if !op.ok || op.v <= 0 {
		return
	}
	arm := func(name string) float64 { return r.get(name).or0() }
	nextview := arm("steal.nextview_16_ns")
	if r.Workload == wDESScale {
		nextview = arm("steal.nextview_2000_ns")
	}
	frames := arm("wire.frames_per_op")
	transportMS := frames * arm("transport.inproc_rtt_us") / 2 / 1000
	lifecycleMS := 0.0
	if r.Workload == wServiceJobs {
		// Each job builds a deployment of two nodes (the arm's has four)
		// and makes two request/reply round trips over TCP. Tear-down
		// runs after the reply, so it costs throughput, not latency.
		lifecycleMS = arm("satin.grid_start_ms") / 2
		transportMS += 2 * arm("transport.tcp_rtt_us") / 1000
	}
	ticksPerOp := r.get("coord.ticks").per(float64(r.Attempted - r.Failed)).or0()
	shares := map[string]float64{
		// spawn_sync runs 257 tasks (the parent and 256 children).
		"attrib.spawn_share":     r.tasksPerOp * arm("satin.spawn_sync_us") / 257 / 1000,
		"attrib.steal_share":     arm("steal.attempts_per_op") * nextview / 1e6,
		"attrib.wire_share":      frames * arm("wire.roundtrip_inproc_us") / 1000,
		"attrib.transport_share": transportMS,
		"attrib.lifecycle_share": lifecycleMS,
		"attrib.coord_share":     ticksPerOp * arm("coord.flat_tick_us") / 1000,
	}
	explained := 0.0
	for name, ms := range shares {
		r.set(name, ms/op.v, 0)
		explained += ms / op.v
	}
	// The simulator exposes no event count, so vtime's share cannot be
	// built from outside yet (ROADMAP item 5); it stays null.
	r.set("attrib.unexplained_share", 1-explained, 0)
}
