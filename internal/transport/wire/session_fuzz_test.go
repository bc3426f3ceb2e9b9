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
//	    or "the gap timer fires now"), bit 2 garbles the body, bit 3
//	    holds the frame back into a batch envelope that is delivered
//	    with the next frame that does not, bits 4-7 high bits of seq
//	[3] unused, so seeds stay readable as one word per step
//
// Whatever arrives, the session must deliver at most once per (epoch,
// seq) and in (epoch, seq) order, keep its reorder buffer bounded, and
// leave no timer armed after Close.
func FuzzSessionFrames(f *testing.F) {
	const handled, timerFires = 0, 3
	step := func(epoch, seq, flags byte) []byte { return []byte{epoch, seq, flags, 0} }
	trace := func(steps ...[]byte) (out []byte) {
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	// The unit tests' traces: reorder, duplicate, lost frame, restarted
	// sender with a straggler of the old epoch, rejoined receiver, one
	// batched pair, and a hole with more than maxPending frames behind it.
	f.Add(trace(step(0, 0, 0), step(0, 2, 0), step(0, 1, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 0, 0), step(0, 1, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 2, 0), step(0, 0, timerFires), step(0, 3, 0)))
	f.Add(trace(step(0, 0, 0), step(0, 1, 0), step(1, 0, 0), step(0, 2, 0), step(1, 1, 0)))
	f.Add(trace(step(2, 7, 0), step(2, 8, 0), step(2, 3, 0)))
	f.Add(trace(step(0, 0, 8), step(0, 1, 8), step(0, 2, 4), step(0, 3, 1), step(0, 4, 2)))
	var flood []byte
	for seq := 1; seq <= maxPending+8; seq++ {
		flood = append(flood, step(0, byte(seq), byte(seq>>8)<<4)...)
	}
	f.Add(flood)

	inner := transport.NewInProc(nil)
	defer inner.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		ep, err := inner.Endpoint("fuzz-session")
		if err != nil {
			t.Fatal(err)
		}
		c := New(ep)
		var last fuzzFrame
		delivered := false
		Handle(c, func(m fuzzFrame, _ Meta) {
			if delivered && (m.Epoch < last.Epoch || m.Epoch == last.Epoch && m.Seq <= last.Seq) {
				t.Errorf("delivered (%d,%d) after (%d,%d)", m.Epoch, m.Seq, last.Epoch, last.Seq)
			}
			last, delivered = m, true
		})
		peer := func() *recvSession {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return c.recvs["peer"]
		}
		var env []byte
		var envN uint64
		for ; len(data) >= 4; data = data[4:] {
			epoch, flags := uint32(data[0]%4), data[2]
			seq := uint64(data[1]) | uint64(flags>>4)<<8
			if flags&3 == timerFires {
				if rs := peer(); rs != nil {
					rs.mu.Lock()
					c.skipGapLocked(rs, "peer")
					c.syncGapTimerLocked(rs, "peer")
					rs.mu.Unlock()
				}
				continue
			}
			kind := [...]string{handled: "test-fuzz", 1: "test-pong", 2: "test-nobody"}[flags&3]
			p, _ := (&fuzzFrame{Epoch: epoch, Seq: seq}).AppendWire(make([]byte, headerLen))
			putHeader(p, epoch, seq)
			if flags&4 != 0 {
				p = append(p[:headerLen], 0xFF)
			}
			if flags&8 != 0 {
				env = wirefmt.AppendBytes(wirefmt.AppendString(env, kind), p)
				envN++
				continue
			}
			if envN > 0 {
				c.handle(transport.Message{From: "peer", Kind: ctrlBatch, Payload: append(wirefmt.AppendUvarint(nil, envN), env...)})
				env, envN = env[:0], 0
			}
			c.handle(transport.Message{From: "peer", Kind: kind, Payload: p})
			if rs := peer(); rs != nil {
				rs.mu.Lock()
				n := len(rs.pending)
				rs.mu.Unlock()
				if n > maxPending {
					t.Fatalf("reorder buffer holds %d frames, bound %d", n, maxPending)
				}
			}
		}
		c.Close()
		if rs := peer(); rs != nil {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			if rs.gapTimer != nil {
				t.Fatal("Close left the gap timer armed")
			}
		}
	})
}
