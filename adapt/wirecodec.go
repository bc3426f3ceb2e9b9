package adapt

import (
	"repro/internal/core"
	"repro/internal/wirefmt"
)

// Binary codecs for the sharded-coordination control frames (ISSUE 8).
// The ClusterSummary codec lives with coord.ClusterSummary itself; the
// ack and reset frames are encoded here.

// AppendWire implements wirefmt.Frame.
func (m *summaryAck) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(m.Cluster))
	b = wirefmt.AppendUvarint(b, m.Seq)
	b = wirefmt.AppendUvarint(b, m.Epoch)
	return m.Req.AppendWire(b)
}

// DecodeWire implements wirefmt.Frame.
func (m *summaryAck) DecodeWire(r *wirefmt.Reader) error {
	m.Cluster = core.ClusterID(r.String())
	m.Seq = r.Uvarint()
	m.Epoch = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	return m.Req.DecodeWire(r)
}

// AppendWire implements wirefmt.Frame.
func (m *shardReset) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Epoch)
	return m.Req.AppendWire(b)
}

// DecodeWire implements wirefmt.Frame.
func (m *shardReset) DecodeWire(r *wirefmt.Reader) error {
	m.Epoch = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	return m.Req.DecodeWire(r)
}
