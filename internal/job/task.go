package job

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/workload"
	"repro/satin"
)

// builders maps each application name onto internal/apps: the root
// task at a problem size plus an optional correctness check. Building
// can cost time and memory in proportion to the size (tsp's distance
// matrix is n², fib's check walks n), so every application has a
// largest size it accepts; checkApp looks only at the name and that
// bound.
var builders = map[string]struct {
	maxSize int
	build   func(size int) (satin.Task, func(any) bool)
}{
	"fib": {40, func(size int) (satin.Task, func(any) bool) {
		want := apps.FibLeaves(size)
		return apps.Fib{N: size, SeqCutoff: 12, LeafDelay: 3 * time.Millisecond},
			func(v any) bool { return v.(int) == want }
	}},
	// nqueens boards are 32-bit masks; the task refuses more than 20.
	"nqueens": {20, func(size int) (satin.Task, func(any) bool) {
		want := apps.QueensSolutions(size)
		return apps.NQueens{N: size, SpawnDepth: 3},
			func(v any) bool { return want < 0 || v.(int) == want }
	}},
	// integrate ignores the size; the bound admits the -size default.
	"integrate": {64, func(int) (satin.Task, func(any) bool) {
		return apps.Integrate{Fn: "spiky", A: -3, B: 3, Eps: 1e-10}, nil
	}},
	"tsp": {32, func(size int) (satin.Task, func(any) bool) {
		return apps.NewTSP(apps.RandomCities(size, 42), 3), nil
	}},
	"knapsack": {64, func(size int) (satin.Task, func(any) bool) {
		k := apps.RandomKnapsack(size, 42)
		want := apps.KnapsackDP(k.Weights, k.Values, k.Capacity)
		return k, func(v any) bool { return v.(int) == want }
	}},
	"barneshut": {100000, func(size int) (satin.Task, func(any) bool) {
		bodies := apps.Plummer(size, 42)
		return apps.BHForces{Bodies: bodies, Lo: 0, Hi: len(bodies), Theta: 0.5, Grain: 128},
			func(v any) bool { return len(v.([]apps.Accel)) == len(bodies) }
	}},
}

// checkApp says whether BuildTask accepts app at size, without building
// anything.
func checkApp(app string, size int) error {
	b, ok := builders[app]
	if !ok {
		return fmt.Errorf("unknown app %q (fib | nqueens | integrate | tsp | knapsack | barneshut)", app)
	}
	if size < 1 || size > b.maxSize {
		return fmt.Errorf("%s size must be in [1, %d], got %d", app, b.maxSize, size)
	}
	return nil
}

// BuildTask turns an application name and problem size into a root
// task plus an optional correctness check. It is the single place the
// service and satinrun map the -app flag onto internal/apps, so submit
// validation and execution can never disagree on what is runnable.
func BuildTask(app string, size int) (satin.Task, func(any) bool, error) {
	if err := checkApp(app, size); err != nil {
		return nil, nil, err
	}
	task, check := builders[app].build(size)
	return task, check, nil
}

// ParseKV parses a "cluster=value" disturbance spec (-shape fs1=5000,
// -load fs1=3) and validates the cluster against the deployment:
// unknown cluster names, non-numeric and non-positive values are
// errors, never silently ignored. A client that does not know the
// deployment passes nil clusters and gets the form checked only.
func ParseKV(spec string, clusters []satin.ClusterSpec) (satin.ClusterID, float64, error) {
	name, val, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("expected cluster=value, got %q", spec)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %v", spec, err)
	}
	if !(v > 0) { // NaN parses, and is no more a bandwidth than -3 is
		return "", 0, fmt.Errorf("value in %q must be > 0", spec)
	}
	if clusters == nil {
		return satin.ClusterID(name), v, nil
	}
	for _, c := range clusters {
		if string(c.Name) == name {
			return c.Name, v, nil
		}
	}
	return "", 0, fmt.Errorf("unknown cluster %q in %q (have %s)", name, spec, clusterNames(clusters))
}

// ParseStages parses a "-stages" pipeline spec: comma-separated
// name=work entries, work in seconds per item on an unloaded node,
// optionally name=work/bytes with a per-item payload shipped into the
// stage. It is the single mapping of the flag onto workload.StreamStage
// for both satinrun and the satind client, so their validation can
// never disagree.
func ParseStages(spec string) ([]workload.StreamStage, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty stage spec")
	}
	var out []workload.StreamStage
	for _, part := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("expected name=work in %q", part)
		}
		workStr, bytesStr, hasBytes := strings.Cut(rest, "/")
		w, err := strconv.ParseFloat(workStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad work in %q: %v", part, err)
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("work in %q must be a finite number > 0", part)
		}
		st := workload.StreamStage{Name: name, WorkPerItem: w}
		if hasBytes {
			bv, err := strconv.ParseFloat(bytesStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad bytes in %q: %v", part, err)
			}
			if !(bv >= 0) || math.IsInf(bv, 1) {
				return nil, fmt.Errorf("bytes in %q must be a finite number >= 0", part)
			}
			st.BytesPerItem = bv
		}
		out = append(out, st)
	}
	return out, nil
}

func clusterNames(clusters []satin.ClusterSpec) string {
	names := make([]string, len(clusters))
	for i, c := range clusters {
		names[i] = string(c.Name)
	}
	return strings.Join(names, ", ")
}

// formatValue renders a job's final value for the result protocol.
// Aggregate results (e.g. barneshut's acceleration slice) are
// summarised, not dumped.
func formatValue(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case []apps.Accel:
		return fmt.Sprintf("[%d accelerations]", len(t))
	}
	s := fmt.Sprintf("%v", v)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
