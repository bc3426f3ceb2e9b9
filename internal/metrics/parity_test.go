package metrics

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/wirefmt/frametest"
)

// TestReportWireParity holds the statistics report to the value it was
// encoded from, over zero values, extreme floats, unicode IDs and
// nil-vs-empty-vs-populated link maps.
func TestReportWireParity(t *testing.T) {
	frametest.RoundTrip[Report, *Report](t, []Report{
		{},
		{
			Node: "узел-0", Cluster: "cluster-ü",
			Start: 1.5, End: 3.25,
			BusySec: 0.5, IntraSec: 0.25, InterSec: 0.125, BenchSec: 0.0625, IdleSec: 1.0,
			Speed: 12345.678, InterBandwidth: 1e9,
		},
		{
			Node: "n0", Cluster: "c0",
			Start: -1, End: math.MaxFloat64, Speed: math.SmallestNonzeroFloat64,
			Links: map[core.ClusterID]core.LinkSample{
				"c1":   {Seconds: 0.5, Bytes: 1 << 20},
				"c2-ü": {Seconds: 1e-9, Bytes: 0},
				"远方集群": {Seconds: 3, Bytes: 7},
			},
		},
		{Node: "n1", Links: map[core.ClusterID]core.LinkSample{}},
	})
}

// A report no Accumulator could build fails its frame: one NaN would
// otherwise reach the period's WAE, since Stats clamps but passes NaN.
func TestReportWireRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	frametest.Rejects[Report, *Report](t, []Report{
		{Start: nan},
		{End: -inf},
		{Start: 2, End: 1},
		{End: 1, BusySec: nan},
		{End: 1, IntraSec: -1},
		{End: 1, InterSec: inf},
		{End: 1, BenchSec: -1e-300},
		{End: 1, IdleSec: -1},
		{End: 1, Speed: nan},
		{End: 1, Speed: -1},
		{End: 1, InterBandwidth: -1},
		{End: 1, Links: map[core.ClusterID]core.LinkSample{"c1": {Seconds: -1}}},
		{End: 1, Links: map[core.ClusterID]core.LinkSample{"c1": {Seconds: 1, Bytes: nan}}},
		{End: 1, Links: map[core.ClusterID]core.LinkSample{"c1": {Bytes: -1}}},
	})
}

// reportGolden is the statistics report with its committed bytes.
var reportGolden = []frametest.Row{
	{Frame: &Report{
		Node: "fs0/00", Cluster: "fs0", Start: 180, End: 360,
		BusySec: 150, IntraSec: 10, InterSec: 5, BenchSec: 3, IdleSec: 12,
		Speed: 1234.5, InterBandwidth: 2e6,
		Links: map[core.ClusterID]core.LinkSample{"fs1": {Seconds: 0.5, Bytes: 1 << 20}, "fs2": {Seconds: 2, Bytes: 7}},
	}, Hex: "066673302f303003667330000000000080664000000000008076400000000000c06240000000000000244000000000000014400000000000000840000000000000284000000000004a93400000000080843e41010203667331000000000000e03f00000000000030410366733200000000000000400000000000001c40"},
}

// TestReportWireGolden pins the report by bytes.
func TestReportWireGolden(t *testing.T) { frametest.Golden(t, reportGolden) }

// TestReportWireCorrupt: a truncated report fails cleanly and a flipped
// byte never panics the decoder.
func TestReportWireCorrupt(t *testing.T) { frametest.Corrupt(t, reportGolden) }

// TestReportEncodingDeterministic: the link map is written in sorted
// peer order, so the same report always encodes to the same bytes.
func TestReportEncodingDeterministic(t *testing.T) {
	rep := Report{
		Node: "n0",
		Links: map[core.ClusterID]core.LinkSample{
			"c3": {Seconds: 3}, "c1": {Seconds: 1}, "c2": {Seconds: 2}, "c0": {Seconds: 0.5},
		},
	}
	first, err := rep.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := rep.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("encoding not deterministic:\n  %x\n  %x", first, again)
		}
	}
}
