package coord

import (
	"sort"

	"repro/internal/core"
	"repro/internal/wirefmt"
)

// Binary codecs for the tree protocol's frames. A ClusterSummary
// crosses the wire once per cluster per period — the whole point of the
// shard split is that this and its SummaryAck are the ONLY recurring
// control traffic the root sees, so they ride the wirefmt fast path
// like every other fixed-shape frame. Link samples and blacklists are written in sorted
// order so the encoding of a given summary is byte-for-byte stable.

// AppendWire implements wirefmt.Frame.
func (st *ReqState) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, uint64(len(st.Nodes)))
	for _, n := range st.Nodes {
		b = wirefmt.AppendString(b, string(n))
	}
	b = wirefmt.AppendUvarint(b, uint64(len(st.Clusters)))
	for _, c := range st.Clusters {
		b = wirefmt.AppendString(b, string(c))
	}
	b = wirefmt.AppendF64(b, st.MinBandwidth)
	return b, nil
}

// DecodeWire implements wirefmt.Frame.
func (st *ReqState) DecodeWire(r *wirefmt.Reader) error {
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) {
		r.Fail("blacklisted-node count exceeds frame")
		return r.Err()
	}
	if n > 0 {
		st.Nodes = make([]core.NodeID, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			st.Nodes = append(st.Nodes, core.NodeID(r.String()))
		}
	}
	n = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) {
		r.Fail("blacklisted-cluster count exceeds frame")
		return r.Err()
	}
	if n > 0 {
		st.Clusters = make([]core.ClusterID, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			st.Clusters = append(st.Clusters, core.ClusterID(r.String()))
		}
	}
	st.MinBandwidth = r.Amount()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (sum *ClusterSummary) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(sum.Cluster))
	b = wirefmt.AppendUvarint(b, sum.Seq)
	b = wirefmt.AppendUvarint(b, sum.Epoch)
	b = wirefmt.AppendF64(b, sum.Time)
	b = wirefmt.AppendVarint(b, int64(sum.Nodes))
	b = wirefmt.AppendVarint(b, int64(sum.Stats))
	b = wirefmt.AppendF64(b, sum.SpeedMax)
	b = wirefmt.AppendF64(b, sum.SpeedMin)
	b = wirefmt.AppendF64(b, sum.WorkSum)
	b = wirefmt.AppendF64(b, sum.ZeroWork)
	b = wirefmt.AppendF64(b, sum.EffSum)
	b = wirefmt.AppendF64(b, sum.SpeedSum)
	b = wirefmt.AppendF64(b, sum.InterSum)
	b = wirefmt.AppendF64(b, sum.InterBWSum)
	b = wirefmt.AppendVarint(b, int64(sum.InterBWCnt))
	// Streaming partials ride behind a presence byte: most summaries
	// carry no streaming workload and pay one byte for it.
	b = wirefmt.AppendBool(b, sum.HasStream)
	if sum.HasStream {
		b = wirefmt.AppendVarint(b, int64(sum.StreamArrived))
		b = wirefmt.AppendVarint(b, int64(sum.StreamCompleted))
		b = wirefmt.AppendF64(b, sum.StreamLatencySum)
		b = wirefmt.AppendVarint(b, int64(sum.StreamBacklog))
	}
	// A presence byte keeps a nil link map apart from an empty one, so
	// the decoder returns the map that was sent.
	b = wirefmt.AppendBool(b, sum.Links != nil)
	if sum.Links != nil {
		b = wirefmt.AppendUvarint(b, uint64(len(sum.Links)))
		peers := make([]string, 0, len(sum.Links))
		for p := range sum.Links {
			peers = append(peers, string(p))
		}
		sort.Strings(peers)
		for _, p := range peers {
			l := sum.Links[core.ClusterID(p)]
			b = wirefmt.AppendString(b, p)
			b = wirefmt.AppendF64(b, l.Seconds)
			b = wirefmt.AppendF64(b, l.Bytes)
		}
	}
	b = wirefmt.AppendUvarint(b, uint64(len(sum.Proposals)))
	for _, p := range sum.Proposals {
		b = wirefmt.AppendString(b, string(p.Node))
		b = wirefmt.AppendF64(b, p.Speed)
		b = wirefmt.AppendF64(b, p.Idle)
		b = wirefmt.AppendF64(b, p.IntraComm)
		b = wirefmt.AppendF64(b, p.InterComm)
	}
	return sum.Req.AppendWire(b)
}

// DecodeWire implements wirefmt.Frame. As for a node's report, a
// summary no sub-kernel could build fails the frame: a non-finite
// float, or a negative count, speed, partial sum or link sample.
func (sum *ClusterSummary) DecodeWire(r *wirefmt.Reader) error {
	sum.Cluster = core.ClusterID(r.String())
	sum.Seq = r.Uvarint()
	sum.Epoch = r.Uvarint()
	sum.Time = r.Finite()
	sum.Nodes = r.Count()
	sum.Stats = r.Count()
	sum.SpeedMax = r.Amount()
	sum.SpeedMin = r.Amount()
	sum.WorkSum = r.Amount()
	sum.ZeroWork = r.Amount()
	sum.EffSum = r.Amount()
	sum.SpeedSum = r.Amount()
	sum.InterSum = r.Amount()
	sum.InterBWSum = r.Amount()
	sum.InterBWCnt = r.Count()
	if r.Bool() {
		sum.HasStream = true
		sum.StreamArrived = r.Count()
		sum.StreamCompleted = r.Count()
		sum.StreamLatencySum = r.Amount()
		sum.StreamBacklog = r.Count()
	}
	if r.Bool() {
		n := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if n > uint64(r.Remaining()) {
			r.Fail("link sample count exceeds frame")
			return r.Err()
		}
		sum.Links = make(map[core.ClusterID]core.LinkSample, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			peer := core.ClusterID(r.String())
			var l core.LinkSample
			l.Seconds = r.Amount()
			l.Bytes = r.Amount()
			sum.Links[peer] = l
		}
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) {
		r.Fail("proposal count exceeds frame")
		return r.Err()
	}
	if n > 0 {
		sum.Proposals = make([]NodeSample, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			var p NodeSample
			p.Node = core.NodeID(r.String())
			p.Speed = r.Amount()
			p.Idle = r.Amount()
			p.IntraComm = r.Amount()
			p.InterComm = r.Amount()
			sum.Proposals = append(sum.Proposals, p)
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	return sum.Req.DecodeWire(r)
}

// AppendWire implements wirefmt.Frame.
func (a *SummaryAck) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(a.Cluster))
	b = wirefmt.AppendUvarint(b, a.Seq)
	b = wirefmt.AppendUvarint(b, a.Epoch)
	return a.Req.AppendWire(b)
}

// DecodeWire implements wirefmt.Frame.
func (a *SummaryAck) DecodeWire(r *wirefmt.Reader) error {
	a.Cluster = core.ClusterID(r.String())
	a.Seq = r.Uvarint()
	a.Epoch = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	return a.Req.DecodeWire(r)
}

// AppendWire implements wirefmt.Frame.
func (rst *ShardReset) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, rst.Epoch)
	return rst.Req.AppendWire(b)
}

// DecodeWire implements wirefmt.Frame.
func (rst *ShardReset) DecodeWire(r *wirefmt.Reader) error {
	rst.Epoch = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	return rst.Req.DecodeWire(r)
}
