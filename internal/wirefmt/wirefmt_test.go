package wirefmt

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendVarint(b, math.MaxInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendF64(b, math.Inf(-1))
	b = AppendF64(b, 3.5)
	b = AppendU64(b, math.MaxUint64-1)
	b = AppendString(b, "héllo wörld ✓")
	b = AppendString(b, "")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint zero = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint max = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Fatalf("varint -1 = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("varint min = %d", got)
	}
	if got := r.Varint(); got != math.MaxInt64 {
		t.Fatalf("varint max = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools broken")
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("f64 -inf = %v", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Fatalf("f64 = %v", got)
	}
	if got := r.U64(); got != math.MaxUint64-1 {
		t.Fatalf("u64 = %d", got)
	}
	if got := r.String(); got != "héllo wörld ✓" {
		t.Fatalf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string = %q", got)
	}
	if got := r.View(r.Len()); string(got) != "\x01\x02\x03" {
		t.Fatalf("bytes = %v", got)
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("nil bytes length = %d", n)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// A length prefix larger than the remaining bytes must error without
// allocating or over-reading — the oversized-frame property.
func TestOversizedLengthRejected(t *testing.T) {
	b := AppendUvarint(nil, 1<<40) // claims a terabyte
	b = append(b, "tiny"...)
	r := NewReader(b)
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("oversized length accepted: %q, err=%v", s, r.Err())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uvarint() // fails: empty input
	if r.Err() == nil {
		t.Fatal("empty uvarint must error")
	}
	first := r.Err()
	_ = r.F64()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestBadBoolRejected(t *testing.T) {
	r := NewReader([]byte{7})
	if r.Bool(); r.Err() == nil {
		t.Fatal("bool byte 7 must be malformed")
	}
}

// FuzzReader drives every Reader method over arbitrary input: no
// sequence of reads may panic or read past the buffer.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xFF, 0x80, 0x80, 0x80})
	f.Add(AppendString(AppendUvarint(nil, 7), strings.Repeat("a", 40)))
	f.Add(AppendString(AppendU64([]byte{1}, 0x0123456789abcdef), "x"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// A fixed op schedule covering every method; sticky errors make
		// the tail a no-op on short inputs.
		_ = r.Uvarint()
		_ = r.Varint()
		_ = r.Bool()
		_ = r.F64()
		_ = r.Finite()
		_ = r.Amount()
		_ = r.Count()
		_ = r.String()
		_ = r.View(r.Len())
		_ = r.U64()
		if r.Remaining() < 0 {
			t.Fatalf("reader over-read: %d remaining", r.Remaining())
		}
		_ = r.Finish()
	})
}
