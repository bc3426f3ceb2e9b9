// Package wirefmt is the hand-rolled binary wire format the typed
// wire layer (internal/transport/wire) uses for the repository's
// control frames — steal requests and replies, statistics reports,
// registry traffic, the job protocol — instead of paying a gob round
// trip per frame. User task payloads (satin.Task values, task results)
// are written with the same primitives, by a plan satin compiles once
// per registered type.
//
// The format is deliberately boring: unsigned varints for integers,
// zig-zag varints for signed ones, fixed 8-byte little-endian IEEE 754
// for floats, length-prefixed bytes for strings and blobs. There is no
// per-frame type descriptor and no self-description — both ends of a
// link run the same binary, and the wire layer's kind string (carried
// once per frame by the transport) selects the decoder.
//
// Decoding is adversarial-input safe by construction: the Reader is
// bounds-checked and sticky-error, every length prefix is validated
// against the bytes actually remaining (a hostile length cannot cause
// an over-read or a huge allocation), and no decode path panics. The
// fuzz targets in this package and in the wire package hold that
// property.
package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Frame is implemented (with pointer receivers for DecodeWire) by
// control-frame types that encode with the binary codec. It is the only
// codec the wire layer has: wire.Register, Send and Handle constrain
// their type parameter to it, so a type without one does not compile.
type Frame interface {
	// AppendWire appends the value's encoding to b and returns the
	// extended slice. It fails only when an embedded user payload cannot
	// be encoded (an unregistered concrete type).
	AppendWire(b []byte) ([]byte, error)
	// DecodeWire reads the value back from r. It must consume exactly
	// the bytes AppendWire produced and report (never panic on) any
	// malformed input via r's sticky error or its own.
	DecodeWire(r *Reader) error
}

// ErrMalformed is wrapped by every decoding failure this package
// detects itself (truncation, oversized length prefixes, trailing
// bytes).
var ErrMalformed = errors.New("wirefmt: malformed frame")

// ---- encoding ----

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendF64 appends v as 8 little-endian IEEE 754 bytes.
func AppendF64(b []byte, v float64) []byte {
	return AppendU64(b, math.Float64bits(v))
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p length-prefixed.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// ---- decoding ----

// Reader decodes one frame from a byte slice. The zero value is not
// usable; build one with NewReader. All methods are bounds-checked and
// sticky-error: after the first failure every later call returns zero
// values, so decoders can run straight through and check Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader never mutates b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, r.off)
	}
}

// Finish errors unless the frame was consumed exactly.
func (r *Reader) Finish() error {
	if r.err == nil && r.Remaining() > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", r.Remaining()))
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads one byte; anything but 0 or 1 is malformed.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail("truncated bool")
		return false
	}
	c := r.b[r.off]
	if c > 1 {
		r.fail("bad bool")
		return false
	}
	r.off++
	return c == 1
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated 8-byte field")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads 8 little-endian IEEE 754 bytes.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Finite reads a float64 that must be finite: NaN or ±Inf fails the
// frame.
func (r *Reader) Finite() float64 {
	v := r.F64()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("non-finite float64")
	}
	return v
}

// Amount reads a float64 that must be finite and non-negative: a
// duration, a speed, a byte count or a sum of them. No correct sender
// writes anything else, and one NaN would poison every sum it reaches.
func (r *Reader) Amount() float64 {
	v := r.F64()
	if !(v >= 0 && v <= math.MaxFloat64) {
		r.fail("float64 not finite and non-negative")
	}
	return v
}

// Count reads a zig-zag signed varint that must be a non-negative int.
func (r *Reader) Count() int {
	v := r.Varint()
	if v < 0 {
		r.fail("negative count")
	}
	return int(v)
}

// Len reads a length prefix and validates it against the bytes
// actually remaining, so a hostile length can neither over-read nor
// drive a huge allocation.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Remaining()) {
		r.fail(fmt.Sprintf("length %d exceeds %d remaining bytes", v, r.Remaining()))
		return 0
	}
	return int(v)
}

// view consumes and returns the next n bytes of the underlying buffer
// (no copy); n must already be validated by Len.
func (r *Reader) view(n int) []byte {
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// View consumes and returns the next n bytes without copying; n must
// come from Len. The returned slice aliases the Reader's buffer. Used
// by envelope parsers (frame batching) that hand sub-frames onward.
func (r *Reader) View(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.Remaining() {
		r.fail("view past end")
		return nil
	}
	return r.view(n)
}

// Fail records a caller-detected format violation as the Reader's
// sticky error, so envelope parsers report their own invariants
// through the same channel as primitive failures.
func (r *Reader) Fail(what string) { r.fail(what) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	return string(r.view(n))
}
