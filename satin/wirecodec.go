package satin

import "repro/internal/wirefmt"

// Binary codecs for the runtime protocol's control frames: the
// fixed-shape fields are hand-encoded with wirefmt primitives, and the
// open-ended user payloads — Task values and task results — ride
// inside through the payload codec (payload.go), whose plans
// Register/RegisterValue compile.

func (m *stealMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendString(b, string(m.Thief))
	b = wirefmt.AppendString(b, string(m.Cluster))
	b = wirefmt.AppendUvarint(b, m.Seq)
	return b, nil
}

func (m *stealMsg) DecodeWire(r *wirefmt.Reader) error {
	m.Thief = NodeID(r.String())
	m.Cluster = ClusterID(r.String())
	m.Seq = r.Uvarint()
	return r.Err()
}

// jobMsg never travels alone — it nests inside a steal reply — but
// implementing Frame directly keeps the reply's codec a delegation.
func (m *jobMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.ID)
	b = wirefmt.AppendString(b, string(m.Owner))
	return appendPayload(b, m.Task)
}

func (m *jobMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = r.Uvarint()
	m.Owner = NodeID(r.String())
	if v := readPayload(r); v != nil {
		t, ok := v.(Task)
		if !ok {
			r.Fail("job payload does not implement Task")
			return r.Err()
		}
		m.Task = t
	}
	return r.Err()
}

func (m *stealReplyMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Seq)
	b = wirefmt.AppendBool(b, m.HasJob)
	return m.Job.AppendWire(b)
}

func (m *stealReplyMsg) DecodeWire(r *wirefmt.Reader) error {
	m.Seq = r.Uvarint()
	m.HasJob = r.Bool()
	return m.Job.DecodeWire(r)
}

func (m *resultMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.ID)
	b, err := appendPayload(b, m.Value)
	if err != nil {
		return nil, err
	}
	return wirefmt.AppendString(b, m.Err), nil
}

func (m *resultMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = r.Uvarint()
	m.Value = readPayload(r)
	m.Err = r.String()
	return r.Err()
}

func (m *holdingMsg) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.ID)
	b = wirefmt.AppendString(b, string(m.Holder))
	return b, nil
}

func (m *holdingMsg) DecodeWire(r *wirefmt.Reader) error {
	m.ID = r.Uvarint()
	m.Holder = NodeID(r.String())
	return r.Err()
}

func (m *wakeMsg) AppendWire(b []byte) ([]byte, error) { return b, nil }

func (m *wakeMsg) DecodeWire(r *wirefmt.Reader) error { return r.Err() }
