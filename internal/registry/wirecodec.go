package registry

import (
	"time"

	"repro/internal/core"
	"repro/internal/wirefmt"
)

// Binary codecs for the registry protocol (ISSUE 7). Heartbeats are
// the chattiest control frames in the system — every member, every
// interval, forever — so they in particular must not pay a gob round
// trip each.

func appendNodeInfo(b []byte, ni NodeInfo) []byte {
	b = wirefmt.AppendString(b, string(ni.ID))
	return wirefmt.AppendString(b, string(ni.Cluster))
}

func decodeNodeInfo(r *wirefmt.Reader) NodeInfo {
	var ni NodeInfo
	ni.ID = core.NodeID(r.String())
	ni.Cluster = core.ClusterID(r.String())
	return ni
}

func (m *joinMsg) AppendWire(b []byte) ([]byte, error) {
	return appendNodeInfo(b, m.Info), nil
}

func (m *joinMsg) DecodeWire(r *wirefmt.Reader) error {
	m.Info = decodeNodeInfo(r)
	return r.Err()
}

func (m *joinAck) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendVarint(b, int64(m.HeartbeatInterval))
	b = wirefmt.AppendUvarint(b, uint64(len(m.Members)))
	for _, ni := range m.Members {
		b = appendNodeInfo(b, ni)
	}
	return b, nil
}

func (m *joinAck) DecodeWire(r *wirefmt.Reader) error {
	m.HeartbeatInterval = time.Duration(r.Varint())
	if m.HeartbeatInterval < 0 {
		r.Fail("negative heartbeat interval") // a client would tick on it
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n == 0 {
		return nil // an empty list is its count alone, and decodes as nil
	}
	// Each member takes at least two length prefixes; a count past the
	// remaining bytes is hostile, not short.
	if n > uint64(r.Remaining()) {
		r.Fail("member count exceeds frame")
		return r.Err()
	}
	m.Members = make([]NodeInfo, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		m.Members = append(m.Members, decodeNodeInfo(r))
	}
	return r.Err()
}

func (m *leaveMsg) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendString(b, string(m.ID)), nil
}

func (m *leaveMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = core.NodeID(r.String())
	return r.Err()
}

func (m *heartbeatMsg) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendString(b, string(m.ID)), nil
}

func (m *heartbeatMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = core.NodeID(r.String())
	return r.Err()
}

func (m *eventMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendVarint(b, int64(m.Event.Kind))
	b = appendNodeInfo(b, m.Event.Node)
	return wirefmt.AppendString(b, m.Event.Signal), nil
}

func (m *eventMsg) DecodeWire(r *wirefmt.Reader) error {
	m.Event.Kind = EventKind(r.Varint())
	m.Event.Node = decodeNodeInfo(r)
	m.Event.Signal = r.String()
	return r.Err()
}

func (m *signalReq) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(m.To))
	return wirefmt.AppendString(b, m.Signal), nil
}

func (m *signalReq) DecodeWire(r *wirefmt.Reader) error {
	m.To = core.NodeID(r.String())
	m.Signal = r.String()
	return r.Err()
}
