// Package frametest is the shared test harness for the golden
// gob-vs-binary parity suites: every protocol package that gives its
// control frames a binary codec runs its edge-case value table through
// both codecs and asserts the decoded values are identical. It is
// imported from _test files only.
package frametest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wirefmt"
)

// Parity round-trips every value through the binary codec and through
// gob and fails the test unless all three values (original, binary
// round trip, gob round trip) are deeply equal. PT is the pointer type
// implementing the binary codec, exactly as the wire layer uses it.
func Parity[T any, PT interface {
	*T
	wirefmt.Frame
}](t *testing.T, vals []T) {
	t.Helper()
	for i, v := range vals {
		v := v
		// binary round trip
		enc, err := PT(&v).AppendWire(nil)
		if err != nil {
			t.Errorf("value %d (%+v): binary encode: %v", i, v, err)
			continue
		}
		var binOut T
		r := wirefmt.NewReader(enc)
		if err := PT(&binOut).DecodeWire(&r); err != nil {
			t.Errorf("value %d (%+v): binary decode: %v", i, v, err)
			continue
		}
		if err := r.Finish(); err != nil {
			t.Errorf("value %d (%+v): binary codec left trailing bytes: %v", i, v, err)
			continue
		}
		// gob round trip (a fresh session, as the wire layer's stream
		// codec would run it)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Errorf("value %d (%+v): gob encode: %v", i, v, err)
			continue
		}
		var gobOut T
		if err := gob.NewDecoder(&buf).Decode(&gobOut); err != nil {
			t.Errorf("value %d (%+v): gob decode: %v", i, v, err)
			continue
		}
		if !reflect.DeepEqual(binOut, gobOut) {
			t.Errorf("value %d: codecs disagree\n  binary: %+v\n  gob:    %+v", i, binOut, gobOut)
		}
		// Both codecs may normalise the same way (gob turns empty slices
		// into nil, and the binary codec follows it); that is fine as long
		// as they agree, checked above. What must not happen is gob
		// preserving the original while binary does not — then the binary
		// codec is lossy.
		if reflect.DeepEqual(gobOut, v) && !reflect.DeepEqual(binOut, v) {
			t.Errorf("value %d: binary codec lossy where gob is not\n  original: %+v\n  binary:   %+v", i, v, binOut)
		}
	}
}

// Rejects asserts that the binary decoder refuses every value with a
// malformed-frame error. The encoder trusts its caller and writes them;
// they are the frames no correct sender produces, which the wire layer
// then counts as decode errors instead of delivering.
func Rejects[T any, PT interface {
	*T
	wirefmt.Frame
}](t *testing.T, vals []T) {
	t.Helper()
	for i, v := range vals {
		enc, err := PT(&v).AppendWire(nil)
		if err != nil {
			t.Errorf("value %d (%+v): binary encode: %v", i, v, err)
			continue
		}
		var out T
		r := wirefmt.NewReader(enc)
		if err := PT(&out).DecodeWire(&r); !errors.Is(err, wirefmt.ErrMalformed) {
			t.Errorf("value %d (%+v): decode returned %v, want a malformed-frame error", i, v, err)
		}
	}
}

// Corrupt asserts that decoding every truncation of enc and a set of
// single-byte corruptions either succeeds or fails cleanly — never
// panics, never over-reads. It complements the fuzz targets with a
// deterministic pass over a real frame's neighbourhood.
func Corrupt[T any, PT interface {
	*T
	wirefmt.Frame
}](t *testing.T, enc []byte) {
	t.Helper()
	decode := func(p []byte) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Errorf("decode of %x panicked: %v", p, rec)
			}
		}()
		var out T
		r := wirefmt.NewReader(p)
		if err := PT(&out).DecodeWire(&r); err == nil {
			_ = r.Finish()
		}
	}
	for i := 0; i < len(enc); i++ {
		decode(enc[:i]) // every truncation
	}
	for i := 0; i < len(enc); i++ {
		q := append([]byte(nil), enc...)
		q[i] ^= 0xFF
		decode(q)
	}
}
