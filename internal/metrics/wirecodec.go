package metrics

import (
	"sort"

	"repro/internal/core"
	"repro/internal/wirefmt"
)

// Binary codec for Report (ISSUE 7): reports cross the wire once per
// node per monitoring period, and in big runs they dominate the control
// traffic — a fixed-shape hand encoding beats a gob round trip per
// frame. Link samples are written in sorted peer order so the encoding
// of a given report is deterministic (byte-for-byte stable across
// sends), which the golden parity tests rely on.

// AppendWire implements wirefmt.Frame.
func (rep *Report) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(rep.Node))
	b = wirefmt.AppendString(b, string(rep.Cluster))
	b = wirefmt.AppendF64(b, rep.Start)
	b = wirefmt.AppendF64(b, rep.End)
	b = wirefmt.AppendF64(b, rep.BusySec)
	b = wirefmt.AppendF64(b, rep.IntraSec)
	b = wirefmt.AppendF64(b, rep.InterSec)
	b = wirefmt.AppendF64(b, rep.BenchSec)
	b = wirefmt.AppendF64(b, rep.IdleSec)
	b = wirefmt.AppendF64(b, rep.Speed)
	b = wirefmt.AppendF64(b, rep.InterBandwidth)
	// Presence byte keeps a nil map distinguishable from an empty one,
	// exactly as gob keeps it.
	b = wirefmt.AppendBool(b, rep.Links != nil)
	if rep.Links == nil {
		return b, nil
	}
	b = wirefmt.AppendUvarint(b, uint64(len(rep.Links)))
	if len(rep.Links) > 0 {
		peers := make([]string, 0, len(rep.Links))
		for p := range rep.Links {
			peers = append(peers, string(p))
		}
		sort.Strings(peers)
		for _, p := range peers {
			l := rep.Links[core.ClusterID(p)]
			b = wirefmt.AppendString(b, p)
			b = wirefmt.AppendF64(b, l.Seconds)
			b = wirefmt.AppendF64(b, l.Bytes)
		}
	}
	return b, nil
}

// DecodeWire implements wirefmt.Frame. A report no Accumulator could
// build fails the frame: a non-finite field, End before Start, or a
// negative time, speed, bandwidth or link sample.
func (rep *Report) DecodeWire(r *wirefmt.Reader) error {
	rep.Node = core.NodeID(r.String())
	rep.Cluster = core.ClusterID(r.String())
	rep.Start = r.Finite()
	rep.End = r.Finite()
	if rep.End < rep.Start {
		r.Fail("report ends before it starts")
	}
	rep.BusySec = r.Amount()
	rep.IntraSec = r.Amount()
	rep.InterSec = r.Amount()
	rep.BenchSec = r.Amount()
	rep.IdleSec = r.Amount()
	rep.Speed = r.Amount()
	rep.InterBandwidth = r.Amount()
	if !r.Bool() {
		return r.Err()
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	// Each sample takes at least 17 bytes; a count past the remaining
	// bytes is hostile, not short.
	if n > uint64(r.Remaining()) {
		r.Fail("link sample count exceeds frame")
		return r.Err()
	}
	rep.Links = make(map[core.ClusterID]core.LinkSample, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		peer := core.ClusterID(r.String())
		var l core.LinkSample
		l.Seconds = r.Amount()
		l.Bytes = r.Amount()
		rep.Links[peer] = l
	}
	return r.Err()
}
