// Binary codecs for the job-service protocol (ISSUE 7). These frames
// cross the TCP hub between satinctl and satind, so they benefit twice:
// no per-frame gob descriptors on a link that is typically short-lived,
// and adversarial-input-safe decoding on the service's public port.
package job

import (
	"sort"
	"time"

	"repro/internal/wirefmt"
	"repro/internal/workload"
)

// appendF64Map writes a string→float64 map in sorted key order, so a
// given value always encodes to the same bytes. A presence byte keeps
// nil apart from empty, so the decoder returns the map that was sent.
func appendF64Map(b []byte, m map[string]float64) []byte {
	b = wirefmt.AppendBool(b, m != nil)
	if m == nil {
		return b
	}
	b = wirefmt.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = wirefmt.AppendString(b, k)
		b = wirefmt.AppendF64(b, m[k])
	}
	return b
}

func decodeF64Map(r *wirefmt.Reader) map[string]float64 {
	if !r.Bool() {
		return nil
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("map entry count exceeds frame")
		return nil
	}
	m := make(map[string]float64, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.F64()
	}
	if r.Err() != nil {
		return nil
	}
	return m
}

// appendStream writes an optional streaming-pipeline spec behind a
// presence byte, stages in declaration order (order is meaning: the
// pipeline runs front to back).
func appendStream(b []byte, sp *workload.StreamSpec) []byte {
	b = wirefmt.AppendBool(b, sp != nil)
	if sp == nil {
		return b
	}
	b = wirefmt.AppendString(b, sp.Name)
	b = wirefmt.AppendUvarint(b, uint64(len(sp.Stages)))
	for _, st := range sp.Stages {
		b = wirefmt.AppendString(b, st.Name)
		b = wirefmt.AppendF64(b, st.WorkPerItem)
		b = wirefmt.AppendF64(b, st.BytesPerItem)
	}
	b = wirefmt.AppendF64(b, sp.RateHz)
	b = wirefmt.AppendVarint(b, int64(sp.Items))
	return wirefmt.AppendF64(b, sp.TargetLatency)
}

func decodeStream(r *wirefmt.Reader) *workload.StreamSpec {
	if !r.Bool() {
		return nil
	}
	sp := &workload.StreamSpec{}
	sp.Name = r.String()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("stage count exceeds frame")
		return nil
	}
	if n > 0 {
		sp.Stages = make([]workload.StreamStage, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			sp.Stages[i].Name = r.String()
			sp.Stages[i].WorkPerItem = r.F64()
			sp.Stages[i].BytesPerItem = r.F64()
		}
	}
	sp.RateHz = r.F64()
	sp.Items = int(r.Varint())
	sp.TargetLatency = r.F64()
	if r.Err() != nil {
		return nil
	}
	return sp
}

func appendSpec(b []byte, s *Spec) []byte {
	b = wirefmt.AppendString(b, s.App)
	b = wirefmt.AppendVarint(b, int64(s.Size))
	b = wirefmt.AppendVarint(b, int64(s.Iters))
	b = wirefmt.AppendVarint(b, int64(s.MinNodes))
	b = wirefmt.AppendVarint(b, int64(s.MaxNodes))
	b = wirefmt.AppendF64(b, s.Weight)
	b = wirefmt.AppendBool(b, s.Adapt)
	b = wirefmt.AppendVarint(b, int64(s.Period))
	b = appendF64Map(b, s.Shape)
	b = appendF64Map(b, s.Load)
	b = wirefmt.AppendString(b, s.Class)
	return appendStream(b, s.Stream)
}

func decodeSpec(r *wirefmt.Reader, s *Spec) {
	s.App = r.String()
	s.Size = int(r.Varint())
	s.Iters = int(r.Varint())
	s.MinNodes = int(r.Varint())
	s.MaxNodes = int(r.Varint())
	s.Weight = r.F64()
	s.Adapt = r.Bool()
	s.Period = time.Duration(r.Varint())
	s.Shape = decodeF64Map(r)
	s.Load = decodeF64Map(r)
	s.Class = r.String()
	s.Stream = decodeStream(r)
}

func appendStatus(b []byte, st *JobStatus) []byte {
	b = wirefmt.AppendString(b, st.ID)
	b = wirefmt.AppendString(b, st.App)
	b = wirefmt.AppendString(b, st.Class)
	b = wirefmt.AppendVarint(b, int64(st.Size))
	b = wirefmt.AppendVarint(b, int64(st.Iters))
	b = wirefmt.AppendString(b, st.State)
	b = wirefmt.AppendVarint(b, int64(st.Nodes))
	b = wirefmt.AppendVarint(b, int64(st.Done))
	b = wirefmt.AppendF64(b, st.Seconds)
	return wirefmt.AppendString(b, st.Err)
}

func decodeStatus(r *wirefmt.Reader, st *JobStatus) {
	st.ID = r.String()
	st.App = r.String()
	st.Class = r.String()
	st.Size = int(r.Varint())
	st.Iters = int(r.Varint())
	st.State = r.String()
	st.Nodes = int(r.Varint())
	st.Done = int(r.Varint())
	st.Seconds = r.F64()
	st.Err = r.String()
}

// AppendWire implements wirefmt.Frame.
func (m *PingRequest) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendUvarint(b, m.Token), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *PingRequest) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *PingReply) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendUvarint(b, m.Token), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *PingReply) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *SubmitRequest) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	return appendSpec(b, &m.Spec), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *SubmitRequest) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	decodeSpec(r, &m.Spec)
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *SubmitReply) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	b = wirefmt.AppendString(b, m.ID)
	return wirefmt.AppendString(b, m.Err), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *SubmitReply) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.ID = r.String()
	m.Err = r.String()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *StatusRequest) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	return wirefmt.AppendString(b, m.ID), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *StatusRequest) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.ID = r.String()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *StatusReply) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	b = wirefmt.AppendUvarint(b, uint64(len(m.Jobs)))
	for i := range m.Jobs {
		b = appendStatus(b, &m.Jobs[i])
	}
	return wirefmt.AppendString(b, m.Err), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *StatusReply) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining()) {
		r.Fail("job count exceeds frame")
		return r.Err()
	}
	if n > 0 {
		m.Jobs = make([]JobStatus, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			decodeStatus(r, &m.Jobs[i])
		}
	}
	m.Err = r.String()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *CancelRequest) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	return wirefmt.AppendString(b, m.ID), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *CancelRequest) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.ID = r.String()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *CancelReply) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	return wirefmt.AppendString(b, m.Err), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *CancelReply) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.Err = r.String()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *ResultRequest) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	b = wirefmt.AppendString(b, m.ID)
	return wirefmt.AppendBool(b, m.Wait), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *ResultRequest) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.ID = r.String()
	m.Wait = r.Bool()
	return r.Err()
}

// AppendWire implements wirefmt.Frame.
func (m *ResultReply) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Token)
	b = wirefmt.AppendString(b, m.ID)
	b = wirefmt.AppendString(b, m.State)
	b = wirefmt.AppendString(b, m.Result)
	b = wirefmt.AppendString(b, m.Check)
	b = wirefmt.AppendUvarint(b, uint64(len(m.Iterations)))
	for _, v := range m.Iterations {
		b = wirefmt.AppendF64(b, v)
	}
	b = wirefmt.AppendString(b, m.Learned)
	return wirefmt.AppendString(b, m.Err), nil
}

// DecodeWire implements wirefmt.Frame.
func (m *ResultReply) DecodeWire(r *wirefmt.Reader) error {
	m.Token = r.Uvarint()
	m.ID = r.String()
	m.State = r.String()
	m.Result = r.String()
	m.Check = r.String()
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining())/8 {
		r.Fail("iteration count exceeds frame")
		return r.Err()
	}
	if n > 0 {
		m.Iterations = make([]float64, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Iterations[i] = r.F64()
		}
	}
	m.Learned = r.String()
	m.Err = r.String()
	return r.Err()
}
