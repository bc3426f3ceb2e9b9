package job

import (
	"reflect"
	"testing"
	"time"

	"repro/satin"
)

// holdSpec is a job that keeps its nodes until it is cancelled: short
// iterations, more of them than any test waits for.
func holdSpec(minNodes int) Spec {
	return Spec{App: "fib", Size: 10, Iters: 1 << 30, MinNodes: minNodes}
}

// heldBy returns how many nodes of each cluster a job's deployment
// holds right now.
func heldBy(t *testing.T, j *Job) map[satin.ClusterID]int {
	t.Helper()
	j.mu.Lock()
	g := j.grid
	j.mu.Unlock()
	if g == nil {
		t.Fatalf("%s is %s and holds no deployment", j.ID, j.State())
	}
	held := make(map[satin.ClusterID]int)
	for _, n := range g.Nodes() {
		held[n.Cluster()]++
	}
	return held
}

// runHolding submits a holding job and waits until it runs; the job is
// cancelled when the test ends.
func runHolding(t *testing.T, m *Manager, spec Spec, hooks Hooks) *Job {
	t.Helper()
	j, err := m.SubmitJob(spec, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Cancel(); waitTerminal(t, j, 10*time.Second) })
	waitState(t, j, Running, 10*time.Second)
	return j
}

func wantHeld(t *testing.T, j *Job, want map[satin.ClusterID]int) {
	t.Helper()
	if got := heldBy(t, j); !reflect.DeepEqual(got, want) {
		t.Errorf("%s holds %v, want %v", j.ID, got, want)
	}
}

// TestJobsPackIntoClusters: on a 2 × 4 pool a two-node job takes two
// nodes of one cluster, not one of each 10 ms apart, and a second
// two-node job that arrives while the first runs takes the cluster with
// the most free nodes, the other one.
func TestJobsPackIntoClusters(t *testing.T) {
	m := testManager(t, 2, 4, nil)
	first := runHolding(t, m, holdSpec(2), Hooks{})
	wantHeld(t, first, map[satin.ClusterID]int{"fs0": 2})
	second := runHolding(t, m, holdSpec(2), Hooks{})
	wantHeld(t, second, map[satin.ClusterID]int{"fs1": 2})
}

// TestSixNodeJobHoldsFourPlusTwo: a job larger than one cluster fills
// one and takes the rest from the next.
func TestSixNodeJobHoldsFourPlusTwo(t *testing.T) {
	m := testManager(t, 2, 4, nil)
	j := runHolding(t, m, holdSpec(6), Hooks{})
	wantHeld(t, j, map[satin.ClusterID]int{"fs0": 4, "fs1": 2})
}

// TestSplitGrantCompletesInOneCluster: a fair-share cap grants the job
// two of its four nodes; once the cap lifts, the next provisioning retry
// takes the other two next to them, although the other cluster has just
// become the emptier one.
func TestSplitGrantCompletesInOneCluster(t *testing.T) {
	m := testManager(t, 2, 4, func(c *Config) { c.ProvisionPatience = 10 * time.Second })
	hog, err := m.arb.Register("hog", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if got := hog.AcquireN("fs1", 4); len(got) != 4 {
		t.Fatalf("hog got %d nodes of fs1, want 4", len(got))
	}
	// A client below its share that asked for nodes and got none: while
	// it is needy, every other client is held to its share (8/3 = 2).
	needy, err := m.arb.Register("needy", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer needy.Close()
	needy.AcquireN("fs1", 1)

	j, err := m.Submit(holdSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Cancel(); waitTerminal(t, j, 10*time.Second) })
	waitState(t, j, Provisioning, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().Nodes < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %d nodes, want its share of 2", j.ID, j.Status().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // a few retries under the cap
	if s := j.State(); s != Provisioning {
		t.Fatalf("%s is %s under the cap, want provisioning", j.ID, s)
	}
	wantHeld(t, j, map[satin.ClusterID]int{"fs0": 2})

	hog.Close() // fs1 is free again and the share rises to 4
	waitState(t, j, Running, 10*time.Second)
	wantHeld(t, j, map[satin.ClusterID]int{"fs0": 4})
}

// TestLayoutStartsAsStated: satinrun's layout, two nodes in each of two
// clusters, is started as stated, and its total is the job's MinNodes. A
// layout that does not fit the deployment is refused at submit.
func TestLayoutStartsAsStated(t *testing.T) {
	m := testManager(t, 2, 4, nil)
	j := runHolding(t, m, Spec{App: "fib", Size: 10, Iters: 1 << 30}, Hooks{
		Layout: []satin.ClusterSpec{{Name: "fs0", Nodes: 2}, {Name: "fs1", Nodes: 2}},
	})
	wantHeld(t, j, map[satin.ClusterID]int{"fs0": 2, "fs1": 2})
	if j.Spec.MinNodes != 4 {
		t.Errorf("MinNodes = %d, want the layout's total 4", j.Spec.MinNodes)
	}
	for _, layout := range [][]satin.ClusterSpec{
		{{Name: "fs9", Nodes: 1}},
		{{Name: "fs0", Nodes: 5}},
		{{Name: "fs0", Nodes: 0}},
	} {
		if _, err := m.SubmitJob(Spec{App: "fib", Size: 10}, Hooks{Layout: layout}); err == nil {
			t.Errorf("layout %v accepted, want error", layout)
		}
	}
}
