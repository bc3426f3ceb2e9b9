// Package job is the multi-job layer of the runtime: a Job wraps one
// satin grid plus its optional adaptation coordinator behind an ID and
// a lifecycle, and a Manager runs many of them concurrently over one
// shared node pool. cmd/satinrun is a thin client of this layer (one
// job, wait, exit); cmd/satind serves it long-lived over the wire
// protocol in proto.go.
package job

import (
	"fmt"
	"sync"
	"time"

	"repro/adapt"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/satin"
)

// State is a job's lifecycle position. Transitions only move forward:
// Queued → Provisioning → Running → one of the terminal states; a
// cancel can strike at any non-terminal point.
type State int

const (
	// Queued: accepted, waiting for an execution slot.
	Queued State = iota
	// Provisioning: bidding for nodes in the shared pool.
	Provisioning
	// Running: the master is executing iterations.
	Running
	// Done: all iterations completed.
	Done
	// Failed: the runtime reported an error.
	Failed
	// Cancelled: stopped on request; its nodes went back to the pool.
	Cancelled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Provisioning:
		return "provisioning"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Result is what a finished job leaves behind.
type Result struct {
	// Value is the final iteration's raw result (nil unless Done).
	Value any
	// Formatted is Value rendered for the wire (summarised if large).
	Formatted string
	// Check is "" (no checker), "ok", or "WRONG RESULT: ...".
	Check string
	// Iterations holds each completed iteration's wall time in seconds.
	Iterations []float64
	// Learned is the coordinator's requirements string, when adaptive.
	Learned string
	// History and Annotations are the coordinator's period log and
	// adaptation timeline (in-process callers only — too big for the
	// wire, where Learned summarises them).
	History     []adapt.PeriodRecord
	Annotations []adapt.Annotation
	// NodeReports snapshots each node's final statistics, taken just
	// before the job's deployment is torn down.
	NodeReports []metrics.Report
	// Stream figures (streaming jobs only): items that completed the
	// pipeline and the end-to-end latency's mean and maximum in seconds.
	StreamCompleted   int
	StreamMeanLatency float64
	StreamMaxLatency  float64
	// Err is the failure or cancellation reason.
	Err string
}

// Hooks are optional in-process settings for a job's run — what a thin
// interactive client (satinrun) uses for live output and a stated
// layout. They are never serialised; wire submissions have none.
type Hooks struct {
	// OnIteration fires after each completed iteration with its wall
	// time and the job's current node count.
	OnIteration func(i int, seconds float64, nodes int)
	// Layout, when set, is the initial deployment: Nodes nodes in each
	// named cluster, started cluster by cluster. Its total replaces
	// Spec.MinNodes. Without it the job's first nodes are placed like
	// every later grow, on as few clusters as they fit in.
	Layout []satin.ClusterSpec
}

// Job is one submitted computation. All exported methods are safe for
// concurrent use; the Manager drives the lifecycle.
type Job struct {
	ID    string
	Spec  Spec
	hooks Hooks
	seed  int64 // the deployment's seed, fixed at submit (0 = unseeded)

	mu       sync.Mutex
	state    State
	result   Result
	grid     *satin.Grid // set while the job owns a deployment
	started  time.Time   // first entered Running
	finished time.Time
	cancelCh chan struct{}
	caOnce   sync.Once
	done     chan struct{}

	onState func(j *Job, from, to State) // manager's transition hook

	obsNodes *obs.Gauge
	obsIters *obs.Counter
}

func newJob(id string, spec Spec, hooks Hooks, onState func(*Job, State, State)) *Job {
	return &Job{
		ID:       id,
		Spec:     spec,
		hooks:    hooks,
		state:    Queued,
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
		onState:  onState,
		// Per-job observability: the obs registry is flat, so the job ID
		// becomes a name segment — /metrics then exposes one counter and
		// gauge series per job, until the manager evicts the job.
		obsNodes: obs.Default.Gauge(nodesSeries(id)),
		obsIters: obs.Default.Counter(itersSeries(id)),
	}
}

func nodesSeries(id string) string { return "job/" + id + "/nodes" }
func itersSeries(id string) string { return "job/" + id + "/iterations" }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done closes when the job reaches a terminal state, once the manager
// has recorded it.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the (possibly partial) result snapshot.
func (j *Job) Result() Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.result
	r.Iterations = append([]float64(nil), j.result.Iterations...)
	return r
}

// Cancel asks the job to stop. Safe to call at any point and more than
// once: a queued job just flips to Cancelled; a provisioning or
// running one has its grid closed, which kills its nodes — each kill
// releases the node back to the shared pool, so a queued job can claim
// the freed capacity immediately.
func (j *Job) Cancel() {
	j.caOnce.Do(func() { close(j.cancelCh) })
	j.mu.Lock()
	g := j.grid
	j.mu.Unlock()
	if g != nil {
		g.Close()
	}
	obs.Default.Counter("job/cancelled").Inc()
}

func (j *Job) cancelled() bool {
	select {
	case <-j.cancelCh:
		return true
	default:
		return false
	}
}

// attachGrid hands the job its deployment; Cancel closes it.
func (j *Job) attachGrid(g *satin.Grid) {
	j.mu.Lock()
	j.grid = g
	cancelled := j.cancelled()
	j.mu.Unlock()
	if cancelled {
		g.Close()
	}
}

// setState performs a lifecycle transition. Terminal states are
// sticky; an attempt to move past one is ignored (e.g. the run loop
// reporting Done after a racing Cancel already finished the job).
func (j *Job) setState(to State) {
	j.mu.Lock()
	from := j.state
	if from.Terminal() || from == to {
		j.mu.Unlock()
		return
	}
	j.state = to
	if to == Running && j.started.IsZero() {
		j.started = time.Now()
	}
	if to.Terminal() {
		j.finished = time.Now()
		j.grid = nil
	}
	j.mu.Unlock()
	obs.Default.Counter("job/state/" + to.String()).Inc()
	if j.onState != nil {
		j.onState(j, from, to)
	}
	if to.Terminal() {
		// After the manager's hook: whoever waits on Done finds the job
		// recorded and the window moved.
		close(j.done)
	}
}

// fail records the error and moves to Failed (or Cancelled, if a
// cancel was the cause).
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.result.Err = err.Error()
	j.mu.Unlock()
	if j.cancelled() {
		j.setState(Cancelled)
		return
	}
	j.setState(Failed)
}

// addIteration records one completed iteration.
func (j *Job) addIteration(seconds float64) {
	j.mu.Lock()
	j.result.Iterations = append(j.result.Iterations, seconds)
	j.mu.Unlock()
	j.obsIters.Inc()
}

// setValue records the final value and its check outcome.
func (j *Job) setValue(v any, check func(any) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result.Value = v
	j.result.Formatted = formatValue(v)
	if check != nil {
		if check(v) {
			j.result.Check = "ok"
		} else {
			j.result.Check = fmt.Sprintf("WRONG RESULT: %s", formatValue(v))
		}
	}
}

// jobRecord is what a finished job's status and result report, and the
// payload of its job-result event: the record store answers from it
// once the manager has evicted the job.
type jobRecord struct {
	State      string    `json:"state"`
	Result     string    `json:"result,omitempty"`
	Check      string    `json:"check,omitempty"`
	Iterations []float64 `json:"iterations,omitempty"`
	Learned    string    `json:"learned,omitempty"`
	Err        string    `json:"err,omitempty"`
	Seconds    float64   `json:"seconds"`
}

// record snapshots the job's state and result in one piece.
func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		State:      j.state.String(),
		Result:     j.result.Formatted,
		Check:      j.result.Check,
		Iterations: append([]float64(nil), j.result.Iterations...),
		Learned:    j.result.Learned,
		Err:        j.result.Err,
		Seconds:    j.secondsLocked(),
	}
}

// reply is the record as the answer to a result request.
func (r jobRecord) reply(token uint64, id string) ResultReply {
	return ResultReply{
		Token: token, ID: id, State: r.State, Result: r.Result, Check: r.Check,
		Iterations: r.Iterations, Learned: r.Learned, Err: r.Err,
	}
}

// Status snapshots the job for the wire protocol.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:    j.ID,
		App:   j.Spec.App,
		Class: j.Spec.Class,
		Size:  j.Spec.Size,
		Iters: j.Spec.Iters,
		State: j.state.String(),
		Done:  len(j.result.Iterations),
		Err:   j.result.Err,
	}
	if j.grid != nil {
		st.Nodes = j.grid.NodeCount()
	}
	st.Seconds = j.secondsLocked()
	return st
}

// secondsLocked is the job's busy time: so far while it runs, in total
// once it has finished, 0 if it never ran (cancelled while queued).
func (j *Job) secondsLocked() float64 {
	switch {
	case j.started.IsZero():
		return 0
	case !j.finished.IsZero():
		return j.finished.Sub(j.started).Seconds()
	default:
		return time.Since(j.started).Seconds()
	}
}
