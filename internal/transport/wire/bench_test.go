package wire

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// benchJob mirrors the shape of satin's steal-reply payload — the
// steal hot path.
type benchJob struct {
	ID    uint64
	Owner string
	Args  [4]int
}

type benchReplyBin struct {
	Seq    uint64
	HasJob bool
	Job    benchJob
}

func (m *benchReplyBin) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Seq)
	b = wirefmt.AppendBool(b, m.HasJob)
	b = wirefmt.AppendUvarint(b, m.Job.ID)
	b = wirefmt.AppendString(b, m.Job.Owner)
	for _, a := range m.Job.Args {
		b = wirefmt.AppendVarint(b, int64(a))
	}
	return b, nil
}

func (m *benchReplyBin) DecodeWire(r *wirefmt.Reader) error {
	m.Seq = r.Uvarint()
	m.HasJob = r.Bool()
	m.Job.ID = r.Uvarint()
	m.Job.Owner = r.String()
	for i := range m.Job.Args {
		m.Job.Args[i] = int(r.Varint())
	}
	return r.Err()
}

func init() { Register[benchReplyBin]("bench-reply-bin") }

var benchValue = benchReplyBin{
	Seq:    42,
	HasJob: true,
	Job:    benchJob{ID: 7, Owner: "fs0/03", Args: [4]int{1, 2, 3, 4}},
}

// BenchmarkWireEncode times one frame's encode into a headered buffer.
// The "binary" arm name is kept so runs stay comparable with the
// per-message-gob and session-gob generations recorded in
// EXPERIMENTS.md, whose code is gone.
func BenchmarkWireEncode(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		v := benchValue
		var total int
		for i := 0; i < b.N; i++ {
			p, err := v.AppendWire(make([]byte, headerLen, headerLen+64))
			if err != nil {
				b.Fatal(err)
			}
			total += len(p)
		}
		reportFrameBytes(b, total)
	})
}

func reportFrameBytes(b *testing.B, total int) {
	if b.N > 0 {
		b.ReportMetric(float64(total)/float64(b.N), "frame-bytes/op")
	}
}

// BenchmarkWireRoundTrip measures whole frames through an ideal
// in-process fabric: encode, send, deliver, decode, dispatch.
func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		f := transport.NewInProc(nil)
		defer f.Close()
		epA, _ := f.Endpoint("a")
		epB, _ := f.Endpoint("b")
		ca, cb := New(epA), New(epB)
		done := make(chan struct{}, 1)
		Handle(cb, func(v benchReplyBin, _ Meta) { done <- struct{}{} })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := Send(ca, "b", benchValue); err != nil {
				b.Fatal(err)
			}
			<-done
		}
	})
}
