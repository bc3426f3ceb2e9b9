package wire

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// fuzzFrame's body repeats the (epoch, seq) of the header that carries
// it, so the handler can see which slot it was delivered from.
type fuzzFrame struct {
	Epoch uint32
	Seq   uint64
}

func (m *fuzzFrame) AppendWire(b []byte) ([]byte, error) {
	return wirefmt.AppendUvarint(wirefmt.AppendUvarint(b, uint64(m.Epoch)), m.Seq), nil
}

func (m *fuzzFrame) DecodeWire(r *wirefmt.Reader) error {
	m.Epoch, m.Seq = uint32(r.Uvarint()), r.Uvarint()
	return r.Err()
}

func init() { Register[fuzzFrame]("test-fuzz") }

// FuzzSessionFrames drives one peer's receive session with an arbitrary
// frame sequence. The input is read four bytes per step:
//
//	[0] epoch, taken mod 4 (so streams restart and stale frames occur)
//	[1] low byte of seq
//	[2] bits 0-1 kind (handled, registered but unhandled, unknown,
//	    handled), bit 2 garbles the body, bit 3 holds the frame back
//	    into a batch envelope that is delivered with the next frame that
//	    does not, bits 4-7 high bits of seq
//	[3] unused, so seeds stay readable as one word per step
//
// Whatever arrives, the session must deliver at most once per (epoch,
// seq) and in (epoch, seq) order, and every frame it does not refuse
// (stale, duplicate) must reach its handler before handle returns.
func FuzzSessionFrames(f *testing.F) {
	step := func(epoch, seq, flags byte) []byte { return []byte{epoch, seq, flags, 0} }
	trace := func(steps ...[]byte) (out []byte) {
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	// The unit tests' traces: an overtaken frame, a duplicate, a lost
	// frame, a restarted sender with a straggler of the old epoch, a
	// rejoined receiver, and one batched pair.
	f.Add(trace(step(0, 0, 0), step(0, 2, 0), step(0, 1, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 0, 0), step(0, 1, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 2, 0), step(0, 3, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 1, 0), step(1, 0, 0), step(0, 2, 0), step(1, 1, 0)))
	f.Add(trace(step(2, 7, 0), step(2, 8, 0), step(2, 3, 0)))
	f.Add(trace(step(0, 0, 8), step(0, 1, 8), step(0, 2, 4), step(0, 3, 1), step(0, 4, 2)))

	inner := transport.NewInProc(nil)
	defer inner.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		ep, err := inner.Endpoint("fuzz-session")
		if err != nil {
			t.Fatal(err)
		}
		c := New(ep)
		defer c.Close()
		var last fuzzFrame
		var got []fuzzFrame
		delivered := false
		Handle(c, func(m fuzzFrame, _ Meta) {
			if delivered && (m.Epoch < last.Epoch || m.Epoch == last.Epoch && m.Seq <= last.Seq) {
				t.Errorf("delivered (%d,%d) after (%d,%d)", m.Epoch, m.Seq, last.Epoch, last.Seq)
			}
			last, delivered = m, true
			got = append(got, m)
		})
		// The cursor the session must keep, and the handled frames it
		// accepts for delivery by the handle call in progress.
		var cur struct {
			epoch uint32
			next  uint64
		}
		var want []fuzzFrame
		accept := func(m fuzzFrame, handled bool) {
			if m.Epoch < cur.epoch {
				return
			}
			if m.Epoch > cur.epoch {
				cur.epoch, cur.next = m.Epoch, 0
			}
			if m.Seq < cur.next {
				return
			}
			cur.next = m.Seq + 1
			if handled {
				want = append(want, m)
			}
		}
		deliver := func(msg transport.Message) {
			got = got[:0]
			c.handle(msg)
			if len(got) != len(want) {
				t.Fatalf("handle delivered %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("handle delivered %v, want %v", got, want)
				}
			}
			want = want[:0]
		}
		var env []byte
		var envN uint64
		for ; len(data) >= 4; data = data[4:] {
			epoch, flags := uint32(data[0]%4), data[2]
			seq := uint64(data[1]) | uint64(flags>>4)<<8
			kind := [...]string{"test-fuzz", "test-pong", "test-nobody", "test-fuzz"}[flags&3]
			m := fuzzFrame{Epoch: epoch, Seq: seq}
			p, _ := m.AppendWire(make([]byte, headerLen))
			putHeader(p, epoch, seq)
			garbled := flags&4 != 0
			if garbled {
				p = append(p[:headerLen], 0xFF)
			}
			if flags&8 != 0 {
				env = wirefmt.AppendBytes(wirefmt.AppendString(env, kind), p)
				envN++
				accept(m, kind == "test-fuzz" && !garbled)
				continue
			}
			if envN > 0 {
				deliver(transport.Message{From: "peer", Kind: ctrlBatch, Payload: append(wirefmt.AppendUvarint(nil, envN), env...)})
				env, envN = env[:0], 0
			}
			accept(m, kind == "test-fuzz" && !garbled)
			deliver(transport.Message{From: "peer", Kind: kind, Payload: p})
		}
	})
}
