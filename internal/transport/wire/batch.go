// Frame coalescing: on busy links many small logical frames (steal
// replies, reports, job results) each pay a fabric submission. With
// batching enabled, a send session accumulates encoded frames and
// flushes them as one ctrlBatch envelope when the batch fills or a
// short window expires — the Gravity-Bridge move of batching many
// logical operations into one wire submission.
//
// The envelope is deliberately thin: a uvarint frame count, then per
// frame its kind string and its length-prefixed payload. Each payload
// is a complete headered frame (epoch + seq + body), so the receiver
// simply replays the envelope through the normal per-frame path: the
// epoch/seq cursor sees exactly the frames it would have seen
// unbatched. A corrupted envelope is a counted decode error; the
// sub-frames it carried become a sequence gap, counted as lost when
// the next frame arrives.
package wire

import (
	"encoding/binary"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wirefmt"
)

// BatchConfig tunes frame coalescing on a Conn's outgoing sessions.
// The zero value disables coalescing.
type BatchConfig struct {
	// Window bounds how long a frame may wait for companions.
	Window time.Duration
	// MaxFrames flushes the batch when this many frames are pending.
	MaxFrames int
	// MaxBytes flushes the batch when the envelope reaches this size.
	MaxBytes int
}

func (b BatchConfig) enabled() bool { return b.MaxFrames > 0 }

// WithBatching enables frame coalescing with cfg; zero fields take
// defaults (500µs window, 32 frames, 32 KiB).
func WithBatching(cfg BatchConfig) Option {
	if cfg.Window <= 0 {
		cfg.Window = 500 * time.Microsecond
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 32
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 32 << 10
	}
	return func(c *Conn) { c.batch = cfg }
}

// dispatchLocked routes one fully headered frame to the fabric —
// directly when coalescing is off, through the batch buffer otherwise.
// Caller holds ss.mu.
func (ss *sendSession) dispatchLocked(c *Conn, kind string, p []byte) error {
	cfg := c.batch
	if !cfg.enabled() {
		return c.ep.Send(ss.to, kind, p)
	}
	ss.batchBuf = wirefmt.AppendString(ss.batchBuf, kind)
	ss.batchBuf = wirefmt.AppendBytes(ss.batchBuf, p)
	ss.batchN++
	if ss.batchN >= cfg.MaxFrames || len(ss.batchBuf) >= cfg.MaxBytes {
		return ss.flushLocked(c)
	}
	if ss.batchTimer == nil {
		ss.batchTimer = time.AfterFunc(cfg.Window, func() {
			if c.isClosed() {
				return
			}
			ss.mu.Lock()
			defer ss.mu.Unlock()
			ss.batchTimer = nil
			_ = ss.flushLocked(c)
		})
	}
	return nil
}

// flushLocked sends the accumulated frames as one envelope. A no-op on
// an empty batch, so it is safe from every restart/close path.
func (ss *sendSession) flushLocked(c *Conn) error {
	if ss.batchN == 0 {
		return nil
	}
	if ss.batchTimer != nil {
		ss.batchTimer.Stop()
		ss.batchTimer = nil
	}
	env := make([]byte, 0, binary.MaxVarintLen64+len(ss.batchBuf))
	env = binary.AppendUvarint(env, uint64(ss.batchN))
	env = append(env, ss.batchBuf...)
	ss.batchBuf = ss.batchBuf[:0]
	ss.batchN = 0
	ss.batchesOut.Inc()
	return c.ep.Send(ss.to, ctrlBatch, env)
}

// discardBatchLocked drops coalesced frames without sending them —
// they belong to an epoch being abandoned.
func (ss *sendSession) discardBatchLocked() {
	if ss.batchTimer != nil {
		ss.batchTimer.Stop()
		ss.batchTimer = nil
	}
	ss.batchBuf = ss.batchBuf[:0]
	ss.batchN = 0
}

// handleBatch unpacks one envelope and replays its frames through the
// normal delivery path. Parsing is bounds-checked end to end: a
// corrupted envelope yields at most a prefix of intact frames plus a
// counted decode error, never a panic or an over-read.
func (c *Conn) handleBatch(msg transport.Message) {
	obs.Default.Counter("wire/batches_in/" + pairLabel(msg.From, c.ep.Name())).Inc()
	r := wirefmt.NewReader(msg.Payload)
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		kind := r.String()
		ln := r.Len()
		if r.Err() != nil {
			break
		}
		payload := r.View(ln)
		if kind == "" || strings.HasPrefix(kind, "\x00") {
			// Control kinds must not nest: a batch smuggling another batch
			// is malformed, not a protocol action.
			r.Fail("control kind inside batch envelope")
			break
		}
		c.handle(transport.Message{From: msg.From, Kind: kind, Payload: payload})
	}
	if err := r.Finish(); err != nil {
		obs.Default.Counter("wire/decode_err/" + ctrlBatch).Inc()
		logKindOnce("malformed batch envelope", ctrlBatch, err)
	}
}
