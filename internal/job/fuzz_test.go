package job

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/wirefmt"
	"repro/internal/workload"
	"repro/satin"
)

// fuzzClusters is the deployment the fuzz targets check against: two
// clusters of four nodes.
var fuzzClusters = []satin.ClusterSpec{{Name: "fs0", Nodes: 4}, {Name: "fs1", Nodes: 4}}

// FuzzSubmitRequest runs what a daemon does with every submit frame
// from its public port, decode and then the spec check, on arbitrary
// bytes. Nothing may panic, and a spec the check lets through must be
// one the manager can run without panicking or waiting forever: a
// non-negative period (a node's report ticker panics on a negative
// one), at least one iteration, a provisioning target the pool can
// meet, a cap that does not undercut it, and a batch size within its
// application's bound.
func FuzzSubmitRequest(f *testing.F) {
	const capacity = 8
	stream := workload.Pipeline3(4, 10)
	for _, spec := range []Spec{
		{App: "fib", Size: 10, Adapt: true, Period: -time.Second},
		{App: "fib", Size: 24, Iters: 3, MinNodes: 2, MaxNodes: 4, Weight: 1, Adapt: true, Period: time.Second,
			Shape: map[string]float64{"fs1": 5000}, Load: map[string]float64{"fs0": 3}},
		{Class: "stream", Stream: &stream, Adapt: true},
		{App: "tsp", Size: 1 << 40}, // rejected: above tsp's bound
	} {
		enc, err := (&SubmitRequest{Token: 7, Spec: spec}).AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		r := wirefmt.NewReader(data)
		if req.DecodeWire(&r) != nil {
			return
		}
		s := req.Spec
		if s.check(fuzzClusters, capacity) != nil {
			return
		}
		if s.Period < 0 || s.Iters < 1 || s.MinNodes < 1 || s.MinNodes > capacity ||
			(s.MaxNodes != 0 && s.MaxNodes < s.MinNodes) {
			t.Fatalf("accepted a spec the manager cannot run: %+v", s)
		}
		if s.Class != "stream" && s.Size > builders[s.App].maxSize {
			t.Fatalf("accepted %s at size %d, above its bound %d", s.App, s.Size, builders[s.App].maxSize)
		}
	})
}

// FuzzJobFrames feeds arbitrary bytes to the decoders of every other
// frame of the job protocol, the ones a daemon or a client reads off
// the TCP hub: no panic, a sticky error on truncation, and whatever a
// decoder accepts must re-encode to bytes that decode to the same value.
func FuzzJobFrames(f *testing.F) {
	fresh := []func() wirefmt.Frame{
		func() wirefmt.Frame { return &PingRequest{} },
		func() wirefmt.Frame { return &PingReply{} },
		func() wirefmt.Frame { return &SubmitReply{} },
		func() wirefmt.Frame { return &StatusRequest{} },
		func() wirefmt.Frame { return &StatusReply{} },
		func() wirefmt.Frame { return &CancelRequest{} },
		func() wirefmt.Frame { return &CancelReply{} },
		func() wirefmt.Frame { return &ResultRequest{} },
		func() wirefmt.Frame { return &ResultReply{} },
	}
	for _, fr := range []wirefmt.Frame{
		&PingRequest{Token: ^uint64(0)}, &PingReply{Token: 1},
		&SubmitReply{Token: 7, ID: "job-001"}, &SubmitReply{Token: 8, Err: "unknown app \"sort\""},
		&StatusRequest{Token: 9, ID: "job-é"}, &StatusRequest{},
		&StatusReply{Token: 10, Jobs: []JobStatus{
			{ID: "job-001", App: "fib", Size: 24, Iters: 3, State: "running", Nodes: 4, Done: 1, Seconds: 0.25},
			{ID: "job-002", Class: "stream", Size: -1, State: "failed", Seconds: math.Inf(1), Err: "iteration 0: node stopped"},
		}},
		&CancelRequest{Token: 11, ID: "job-002"}, &CancelReply{Token: 12, Err: "unknown job"},
		&ResultRequest{Token: 13, ID: "job-001", Wait: true},
		&ResultReply{Token: 14, ID: "job-001", State: "done", Result: "46368", Check: "ok",
			Iterations: []float64{0.5, math.NaN(), 5e-324}, Learned: "min bw 0"},
	} {
		enc, err := fr.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range fresh {
			r := wirefmt.NewReader(data)
			fr := mk()
			if err := fr.DecodeWire(&r); err != nil {
				if r.Err() == nil {
					t.Fatalf("%T: decode failed (%v) but the reader's error is not sticky", fr, err)
				}
				continue
			}
			enc, err := fr.AppendWire(nil)
			if err != nil {
				t.Fatalf("%T: accepted frame does not re-encode: %v", fr, err)
			}
			r2 := wirefmt.NewReader(enc)
			again := mk()
			if err := again.DecodeWire(&r2); err != nil || r2.Remaining() != 0 {
				t.Fatalf("%T: re-encoded frame does not decode cleanly: %v, %d bytes left", fr, err, r2.Remaining())
			}
			if enc2, _ := again.AppendWire(nil); string(enc2) != string(enc) {
				t.Fatalf("%T: re-encode does not round-trip:\n %x\n %x", fr, enc, enc2)
			}
			// Every field is mandatory, so each cut of a whole frame fails
			// (the first 4 KiB of cuts: a long frame costs n² to check).
			for cut := 0; cut < len(enc) && cut < 4096; cut++ {
				r3 := wirefmt.NewReader(enc[:cut])
				if mk().DecodeWire(&r3) == nil || r3.Err() == nil {
					t.Fatalf("%T: truncated to %d of %d bytes, decode did not fail with a sticky error", fr, cut, len(enc))
				}
			}
		}
	})
}

// An oversized tsp is refused by looking at its size: the check
// allocates what its error message needs, not the n² distance matrix.
func TestOversizedSpecRejectedWithoutBuilding(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		s := Spec{App: "tsp", Size: 1_000_000}
		if s.check(fuzzClusters, 8) == nil {
			t.Fatal("tsp at size 10^6 accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("rejecting an oversized tsp made %v allocations, want a handful", allocs)
	}
}

// FuzzParseKV: the -shape/-load parser never panics, and what it
// accepts is a positive number for the cluster named before the "=",
// one of the deployment's when the deployment is given.
func FuzzParseKV(f *testing.F) {
	for _, spec := range []string{"fs1=5000", "fs0=0.5", "fs1", "=5000", "fs1=-3", "fs1=NaN", "fs9=1", "fs0=1e309", "fs0==1"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, clusters := range [][]satin.ClusterSpec{nil, fuzzClusters} {
			c, v, err := ParseKV(spec, clusters)
			if err != nil {
				continue
			}
			if name, _, _ := strings.Cut(spec, "="); string(c) != name || !(v > 0) {
				t.Fatalf("ParseKV(%q) = %q, %v: want the named cluster and a value > 0", spec, c, v)
			}
			if clusters != nil && c != "fs0" && c != "fs1" {
				t.Fatalf("ParseKV(%q) accepted cluster %q outside the deployment", spec, c)
			}
		}
	})
}

// FuzzParseStages: the -stages grammar (name=seconds[/bytes],...) that
// cli.JobFlags.Spec hands both binaries never panics, and every spec it
// accepts is a pipeline the manager can run: each stage named, with a
// finite positive work and finite non-negative bytes per item, and the
// stream built from it with the flags' defaults (10 items/s, 100 items,
// a 2 s target) passes workload.StreamSpec.Validate.
func FuzzParseStages(f *testing.F) {
	for _, spec := range []string{
		"decode=0.05,transform=0.15,encode=0.05", "a=1/2048", "a=1/0", "a=0", "a=-1",
		"a=NaN", "a=Inf", "a=1/NaN", "a=1/-Inf", "=1", "a", "a=1,", ",", "a=1//2", "a=1e308,b=1e308", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		stages, err := ParseStages(spec)
		if err != nil {
			return
		}
		if len(stages) != strings.Count(spec, ",")+1 {
			t.Fatalf("ParseStages(%q) = %d stages for %d parts", spec, len(stages), strings.Count(spec, ",")+1)
		}
		for _, st := range stages {
			if st.Name == "" || !(st.WorkPerItem > 0) || math.IsInf(st.WorkPerItem, 0) ||
				!(st.BytesPerItem >= 0) || math.IsInf(st.BytesPerItem, 0) {
				t.Fatalf("ParseStages(%q) accepted stage %+v", spec, st)
			}
		}
		stream := workload.StreamSpec{Name: "cli", Stages: stages, RateHz: 10, Items: 100, TargetLatency: 2}
		if err := stream.Validate(); err != nil {
			t.Fatalf("ParseStages(%q) accepted a pipeline Validate refuses: %v", spec, err)
		}
	})
}
