// Package frametest is the shared test harness for the binary
// control-frame codecs. The wire format is its own authority: a frame
// must decode back to the value it was encoded from, and each kind's
// bytes are pinned by a committed golden. Every protocol package runs
// its edge-case values through RoundTrip, one frame of each kind
// through Golden and Corrupt, and hostile values through Rejects; its
// fuzz target runs Fuzz over the golden table. It is imported from _test files only.
package frametest

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wirefmt"
)

// RoundTrip fails the test unless every value decodes, from exactly the
// bytes its encoding took, to a value equal to itself under one
// normalisation: an empty slice equals a nil one, at any depth. A codec
// writes a slice as its length alone, so it cannot keep the two apart;
// it writes a map behind a presence byte, so maps compare exactly.
// Unexported fields are compared too. PT is the pointer type that
// implements the codec, as the wire layer uses it.
func RoundTrip[T any, PT interface {
	*T
	wirefmt.Frame
}](t *testing.T, vals []T) {
	t.Helper()
	for i, v := range vals {
		enc, err := PT(&v).AppendWire(nil)
		if err != nil {
			t.Errorf("value %d (%+v): encode: %v", i, v, err)
			continue
		}
		var out T
		r := wirefmt.NewReader(enc)
		if err := PT(&out).DecodeWire(&r); err != nil {
			t.Errorf("value %d (%+v): decode: %v", i, v, err)
		} else if err := r.Finish(); err != nil {
			t.Errorf("value %d (%+v): %v", i, v, err)
		} else if !equal(reflect.ValueOf(out), reflect.ValueOf(v)) {
			t.Errorf("value %d: decoded\n  %+v\nwant\n  %+v", i, out, v)
		}
	}
}

// A Row is one frame and the bytes it encodes to, in hex.
type Row struct {
	Frame wirefmt.Frame
	Hex   string
}

// Golden pins each row's frame by its bytes. The frame must encode to
// exactly the committed bytes, and they must decode back to the frame
// (as RoundTrip compares) with no tail. A layout change fails here
// first and has to be made on purpose.
func Golden(t *testing.T, rows []Row) {
	t.Helper()
	for i, row := range rows {
		typ := reflect.TypeOf(row.Frame).Elem()
		enc, err := row.Frame.AppendWire(nil)
		if err != nil {
			t.Errorf("row %d (%v): encode: %v", i, typ, err)
			continue
		}
		if got := hex.EncodeToString(enc); got != row.Hex {
			t.Errorf("row %d (%v): encoded bytes changed\n got  %s\n want %s", i, typ, got, row.Hex)
		}
		want, err := hex.DecodeString(row.Hex)
		if err != nil {
			t.Errorf("row %d (%v): %v", i, typ, err)
			continue
		}
		if fr, r, err := decode(t, typ, want); err != nil {
			t.Errorf("row %d (%v): golden bytes no longer decode: %v", i, typ, err)
		} else if err := r.Finish(); err != nil {
			t.Errorf("row %d (%v): golden bytes leave a tail: %v", i, typ, err)
		} else if !equal(reflect.ValueOf(fr), reflect.ValueOf(row.Frame)) {
			t.Errorf("row %d (%v): golden bytes decode to\n  %+v\nwant\n  %+v", i, typ, fr, row.Frame)
		}
	}
}

// Corrupt damages each row's committed bytes. Every proper prefix must
// fail with a sticky reader error, since every field is mandatory, and
// every single-byte flip must decode or fail without a panic.
func Corrupt(t *testing.T, rows []Row) {
	t.Helper()
	for _, row := range rows {
		typ := reflect.TypeOf(row.Frame).Elem()
		want, _ := hex.DecodeString(row.Hex) // Golden reports bad hex
		prefixesFail(t, typ, want)
		for j := range want {
			q := append([]byte(nil), want...)
			q[j] ^= 0xFF
			if _, r, err := decode(t, typ, q); err == nil {
				_ = r.Finish()
			}
		}
	}
}

// Fuzz runs the one property every control-frame decoder keeps on
// arbitrary bytes, with the rows' bytes as seeds, for each frame type
// the rows hold: a failed decode leaves a sticky reader error, and an
// accepted frame re-encodes to bytes that decode cleanly to the same
// encoding, every proper prefix of which fails.
func Fuzz(f *testing.F, rows []Row) {
	var types []reflect.Type
	for _, row := range rows {
		b, err := hex.DecodeString(row.Hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if typ := reflect.TypeOf(row.Frame).Elem(); !slices.Contains(types, typ) {
			types = append(types, typ)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range types {
			fr, r, err := decode(t, typ, data)
			if err != nil {
				if r.Err() == nil {
					t.Fatalf("%v: decode failed (%v) but the reader's error is not sticky", typ, err)
				}
				continue
			}
			enc, err := fr.AppendWire(nil)
			if err != nil {
				t.Fatalf("%v: accepted frame does not re-encode: %v", typ, err)
			}
			again, r, err := decode(t, typ, enc)
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("%v: re-encoded frame does not decode cleanly: %v, %d bytes left", typ, err, r.Remaining())
			}
			if enc2, _ := again.AppendWire(nil); string(enc2) != string(enc) {
				t.Fatalf("%v: re-encode does not round-trip:\n %x\n %x", typ, enc, enc2)
			}
			// The first 4 KiB of cuts: a long frame costs n² to check.
			prefixesFail(t, typ, enc[:min(len(enc), 4096)])
		}
	})
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

// prefixesFail fails the test unless every proper prefix of enc fails
// to decode as a typ with a sticky reader error.
func prefixesFail(t testing.TB, typ reflect.Type, enc []byte) {
	t.Helper()
	for cut := range len(enc) {
		if _, r, err := decode(t, typ, enc[:cut]); err == nil || r.Err() == nil {
			t.Errorf("%v: truncated to %d of %d bytes, decode did not fail with a sticky error", typ, cut, len(enc))
			return
		}
	}
}

// decode decodes p into a fresh typ. A decoder panic fails the test and
// is returned as the decode error.
func decode(t testing.TB, typ reflect.Type, p []byte) (fr wirefmt.Frame, r *wirefmt.Reader, err error) {
	t.Helper()
	fr = reflect.New(typ).Interface().(wirefmt.Frame)
	rd := wirefmt.NewReader(p)
	r = &rd
	defer func() {
		if rec := recover(); rec != nil {
			t.Errorf("%v: decode of %x panicked: %v", typ, p, rec)
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return fr, r, fr.DecodeWire(r)
}

// equal is reflect.DeepEqual with an empty slice equal to a nil one.
// It reads unexported fields as it reads exported ones.
func equal(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !equal(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); !bv.IsValid() || !equal(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equal(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !equal(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b) // a basic kind, compared with == as DeepEqual does
}
