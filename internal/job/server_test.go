package job

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/satin"
)

// testService stands up a manager, its wire server, and a control
// client on one in-process fabric — the same wiring cmd/satind does
// over TCP.
func testService(t *testing.T) (*Manager, *Ctl) {
	t.Helper()
	m := testManager(t, 1, 2, nil)
	return m, serve(t, m)
}

// serve puts the manager behind the wire protocol on an in-process
// fabric and dials a control client into it.
func serve(t *testing.T, m *Manager) *Ctl {
	t.Helper()
	f := transport.NewInProc(nil)
	t.Cleanup(f.Close)
	srv, err := Serve(f, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ctl, err := Dial(f, "satinctl-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	return ctl
}

// TestProtocolRoundTrip drives the full submit → status → result →
// cancel surface over the typed wire layer.
func TestProtocolRoundTrip(t *testing.T) {
	const tmo = 10 * time.Second
	m, ctl := testService(t)

	id, err := ctl.Submit(Spec{App: "fib", Size: 12, Iters: 2}, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("submit returned empty job ID")
	}
	// Waiting result fetch: blocks server-side until the job finishes.
	res, err := ctl.Result(id, true, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "done" || res.Check != "ok" || len(res.Iterations) != 2 {
		t.Fatalf("result: state %q check %q iters %d", res.State, res.Check, len(res.Iterations))
	}

	// Status of all jobs and of one job agree.
	all, err := ctl.Status("", tmo)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != id || all[0].State != "done" {
		t.Fatalf("status all: %+v", all)
	}
	one, err := ctl.Status(id, tmo)
	if err != nil || len(one) != 1 || one[0].Done != 2 {
		t.Fatalf("status one: %+v err %v", one, err)
	}

	// Validation errors travel back as typed replies, not timeouts.
	if _, err := ctl.Submit(Spec{App: "no-such-app", Size: 5}, tmo); err == nil ||
		!strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("bad submit: %v", err)
	}
	if _, err := ctl.Status("job-999", tmo); err == nil {
		t.Fatal("status of unknown job should error")
	}
	if err := ctl.Cancel("job-999", tmo); err == nil {
		t.Fatal("cancel of unknown job should error")
	}

	// Cancel over the wire: a long job dies and reports cancelled.
	id2, err := ctl.Submit(Spec{App: "fib", Size: 24, Iters: 60, MinNodes: 2}, tmo)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m.Job(id2), Running, tmo)
	if err := ctl.Cancel(id2, tmo); err != nil {
		t.Fatal(err)
	}
	res2, err := ctl.Result(id2, true, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != "cancelled" {
		t.Fatalf("after cancel: state %q", res2.State)
	}
}

// TestProtocolOverTCP runs the same control path over real sockets —
// the deployment satind uses.
func TestProtocolOverTCP(t *testing.T) {
	m := testManager(t, 1, 2, nil)
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	srv, err := Serve(transport.NewTCP(hub.Addr()), m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ctl, err := Dial(transport.NewTCP(hub.Addr()), "satinctl-tcp-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	id, err := ctl.Submit(Spec{App: "nqueens", Size: 7}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Result(id, true, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "done" || res.Check != "ok" {
		t.Fatalf("tcp result: state %q check %q err %q", res.State, res.Check, res.Err)
	}
}

// TestServedStackReturnsGoroutines: the daemon's whole stack, a TCP hub,
// the wire server and two control clients over one manager, runs ten
// short jobs and an adaptive one over the wire, cancels one mid-run, then
// drains and closes in satind's order. Every goroutine it started, the
// hub's per-connection readers and the result waiters included, is gone
// afterwards.
func TestServedStackReturnsGoroutines(t *testing.T) {
	const tmo = 30 * time.Second
	base := runtime.NumGoroutine()
	m, err := NewManager(testConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(transport.NewTCP(hub.Addr()), m)
	if err != nil {
		t.Fatal(err)
	}
	var ctls []*Ctl
	for i := 0; i < 2; i++ {
		ctl, err := Dial(transport.NewTCP(hub.Addr()), fmt.Sprintf("satinctl-lifecycle-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ctls = append(ctls, ctl)
	}

	long, err := ctls[0].Submit(Spec{App: "fib", Size: 24, Iters: 60, MinNodes: 2}, tmo)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m.Job(long), Running, tmo)
	ids := map[string]*Ctl{}
	for i := 0; i < 10; i++ {
		ctl := ctls[i%2]
		id, err := ctl.Submit(Spec{App: "nqueens", Size: 7, MinNodes: 1 + i%2}, tmo)
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = ctl
	}
	adaptive, err := ctls[1].Submit(Spec{App: "fib", Size: 16, Iters: 10, MinNodes: 2, Adapt: true}, tmo)
	if err != nil {
		t.Fatal(err)
	}
	ids[adaptive] = ctls[1]
	if err := ctls[1].Cancel(long, tmo); err != nil {
		t.Fatal(err)
	}
	if res, err := ctls[0].Result(long, true, tmo); err != nil || res.State != "cancelled" {
		t.Fatalf("cancelled job: state %q, err %v", res.State, err)
	}
	for id, ctl := range ids {
		res, err := ctl.Result(id, true, tmo)
		if err != nil || res.State != "done" || res.Check != "ok" {
			t.Fatalf("%s: state %q, check %q, err %v %q", id, res.State, res.Check, err, res.Err)
		}
	}

	m.Drain(10 * time.Second)
	m.Close()
	for _, ctl := range ctls {
		ctl.Close()
	}
	srv.Close()
	hub.Close()

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParseKV is the satellite's table test: the -shape/-load parser
// must reject what it used to silently ignore.
func TestParseKV(t *testing.T) {
	clusters := []satin.ClusterSpec{{Name: "fs0", Nodes: 2}, {Name: "fs1", Nodes: 2}}
	for _, tc := range []struct {
		spec    string
		cluster satin.ClusterID
		v       float64
		wantErr string
	}{
		{spec: "fs1=5000", cluster: "fs1", v: 5000},
		{spec: "fs0=0.5", cluster: "fs0", v: 0.5},
		{spec: "fs1", wantErr: "expected cluster=value"},
		{spec: "=5000", wantErr: "expected cluster=value"},
		{spec: "fs1=", wantErr: "bad value"},
		{spec: "fs1=fast", wantErr: "bad value"},
		{spec: "fs1=-3", wantErr: "must be > 0"},
		{spec: "fs1=0", wantErr: "must be > 0"},
		{spec: "fs1=NaN", wantErr: "must be > 0"},
		{spec: "fs9=5000", wantErr: "unknown cluster"},
	} {
		cluster, v, err := ParseKV(tc.spec, clusters)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseKV(%q): err %v, want %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || cluster != tc.cluster || v != tc.v {
			t.Errorf("ParseKV(%q) = %q, %v, %v; want %q, %v", tc.spec, cluster, v, err, tc.cluster, tc.v)
		}
	}
}
