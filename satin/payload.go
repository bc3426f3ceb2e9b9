package satin

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wirefmt"
)

// The payload codec: stolen tasks and task results are open-ended Go
// values, so each type that may cross the wire is registered once
// (Register, RegisterValue) and gets a plan, a tree over its exported
// fields that the encoder and decoder walk with reflect. A payload is a
// presence byte, the 64-bit fingerprint of its type's name and field
// layout, then its fields in wirefmt primitives: bools as one byte,
// integers as varints, floats as 8 bytes, strings and slices
// length-prefixed, arrays and structs field by field. Nothing else is
// self-describing: both ends run the same binary, so the fingerprint
// names the plan and the plan the layout.

// plan is one type's encoding. min is the fewest bytes a value of the
// type takes on the wire; the decoder checks it against the bytes left
// before it allocates anything for the value.
type plan struct {
	typ    reflect.Type
	kind   reflect.Kind
	elem   *plan       // slice and array element
	fields []fieldPlan // struct
	min    int
}

type fieldPlan struct {
	index int
	plan  *plan
}

// payloadType is a registered top-level type. scratch holds pointers
// to zeroed values of it for readPayload to decode into, so that a
// decoded value is allocated once, by the copy Interface makes.
type payloadType struct {
	name    string
	fp      uint64
	plan    *plan
	scratch sync.Pool
}

// payloadTypes is the registry. It is copied on write, so encoders and
// decoders read it without a lock.
type payloadTypes struct {
	byType map[reflect.Type]*payloadType
	byFP   map[uint64]*payloadType
}

var (
	payloadMu  sync.Mutex
	registered atomic.Pointer[payloadTypes]
)

// The basic kinds and slices of them cross the wire unregistered.
func init() {
	for _, v := range []any{
		false, 0, int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), "",
		[]bool(nil), []int(nil), []int8(nil), []int16(nil), []int32(nil), []int64(nil),
		[]uint(nil), []uint8(nil), []uint16(nil), []uint32(nil), []uint64(nil),
		[]float32(nil), []float64(nil), []string(nil),
	} {
		registerPayload(reflect.TypeOf(v))
	}
}

// registerPayload builds t's plan and adds it to the registry. It
// panics, naming the field, on a kind the codec does not carry, and on
// a fingerprint another type already holds. Registering a type again
// is a no-op.
func registerPayload(t reflect.Type) {
	if t == nil {
		panic("satin: cannot register a nil payload")
	}
	payloadMu.Lock()
	defer payloadMu.Unlock()
	old := registered.Load()
	if old == nil {
		old = &payloadTypes{}
	}
	if _, ok := old.byType[t]; ok {
		return
	}
	name := typeName(t)
	pt := &payloadType{name: name, plan: buildPlan(t, name, map[reflect.Type]bool{})}
	pt.fp = fingerprint(t)
	pt.scratch.New = func() any { return reflect.New(t).Interface() }
	if other, ok := old.byFP[pt.fp]; ok {
		panic(fmt.Sprintf("satin: payload types %s and %s share fingerprint %016x", other.name, name, pt.fp))
	}
	next := &payloadTypes{
		byType: make(map[reflect.Type]*payloadType, len(old.byType)+1),
		byFP:   make(map[uint64]*payloadType, len(old.byFP)+1),
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	for k, v := range old.byFP {
		next.byFP[k] = v
	}
	next.byType[t] = pt
	next.byFP[pt.fp] = pt
	registered.Store(next)
}

// typeName is t's registered name: the package-qualified name of a
// named type, the type literal otherwise.
func typeName(t reflect.Type) string {
	if t.Name() != "" && t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}

// buildPlan compiles t's plan. path names the value being planned for
// the panic message; outer holds the types that contain it. A type that
// contains itself is refused: its values could nest as deep as a frame
// is long.
func buildPlan(t reflect.Type, path string, outer map[reflect.Type]bool) *plan {
	if outer[t] {
		panic(fmt.Sprintf("satin: cannot register payload: %s contains its own type %s", path, t))
	}
	outer[t] = true
	defer delete(outer, t)
	p := &plan{typ: t, kind: t.Kind()}
	switch p.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.String:
		p.min = 1
	case reflect.Float32, reflect.Float64:
		p.min = 8
	case reflect.Slice:
		p.elem = buildPlan(t.Elem(), path+"[]", outer)
		p.min = 1
	case reflect.Array:
		p.elem = buildPlan(t.Elem(), path+"[]", outer)
		p.min = t.Len() * p.elem.min
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // unexported fields do not travel
			}
			fp := buildPlan(f.Type, path+"."+f.Name, outer)
			p.fields = append(p.fields, fieldPlan{index: i, plan: fp})
			p.min += fp.min
		}
	default:
		panic(fmt.Sprintf("satin: cannot register payload: %s has kind %s, which does not cross the wire", path, p.kind))
	}
	return p
}

// fingerprint hashes t's registered name and field layout. t must
// have a plan: a type that contains itself would not end.
func fingerprint(t reflect.Type) uint64 {
	var layout strings.Builder
	describe(&layout, t)
	h := fnv.New64a()
	h.Write([]byte(layout.String()))
	return h.Sum64()
}

// describe writes t's registered name and field layout, the text the
// fingerprint hashes.
func describe(b *strings.Builder, t reflect.Type) {
	if t.Name() != "" {
		b.WriteString(typeName(t))
		b.WriteByte('=')
	}
	switch t.Kind() {
	case reflect.Slice:
		b.WriteString("[]")
		describe(b, t.Elem())
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		describe(b, t.Elem())
	case reflect.Struct:
		b.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b.WriteString(f.Name)
				b.WriteByte(' ')
				describe(b, f.Type)
				b.WriteByte(';')
			}
		}
		b.WriteByte('}')
	default:
		b.WriteString(t.Kind().String())
	}
}

// appendPayload appends v: a zero presence byte for nil, else a one,
// the fingerprint and the value. It fails on an unregistered type.
func appendPayload(b []byte, v any) ([]byte, error) {
	if v == nil {
		return append(b, 0), nil
	}
	pt := registered.Load().byType[reflect.TypeOf(v)]
	if pt == nil {
		return nil, fmt.Errorf("satin: payload type %T is not registered", v)
	}
	b = append(b, 1)
	b = wirefmt.AppendU64(b, pt.fp)
	return appendValue(b, pt.plan, reflect.ValueOf(v)), nil
}

func appendValue(b []byte, p *plan, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		return wirefmt.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return wirefmt.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return wirefmt.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return wirefmt.AppendF64(b, v.Float())
	case reflect.String:
		return wirefmt.AppendString(b, v.String())
	case reflect.Slice:
		b = wirefmt.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, p.elem, v.Index(i))
		}
	case reflect.Struct:
		for _, f := range p.fields {
			b = appendValue(b, f.plan, v.Field(f.index))
		}
	}
	return b
}

// readPayload reads what appendPayload wrote. An unknown fingerprint,
// a length past the frame's end and a value out of its type's range
// fail r, and then it returns nil.
func readPayload(r *wirefmt.Reader) any {
	if !r.Bool() {
		return nil
	}
	fp := r.U64()
	if r.Err() != nil {
		return nil
	}
	pt := registered.Load().byFP[fp]
	if pt == nil {
		r.Fail(fmt.Sprintf("unknown payload type %016x", fp))
		return nil
	}
	if pt.plan.min > r.Remaining() {
		r.Fail(fmt.Sprintf("%s payload needs %d bytes, %d remain", pt.name, pt.plan.min, r.Remaining()))
		return nil
	}
	scratch := pt.scratch.Get()
	v := reflect.ValueOf(scratch).Elem()
	readValue(r, pt.plan, v)
	var out any
	if r.Err() == nil {
		out = v.Interface()
	}
	// Zeroed before it goes back, so that no slice or string decoded
	// here is shared with the next value or kept alive by the pool.
	v.SetZero()
	pt.scratch.Put(scratch)
	return out
}

func readValue(r *wirefmt.Reader, p *plan, v reflect.Value) {
	switch p.kind {
	case reflect.Bool:
		v.SetBool(r.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := r.Varint()
		if v.OverflowInt(x) {
			r.Fail(fmt.Sprintf("%d overflows %s", x, p.typ))
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := r.Uvarint()
		if v.OverflowUint(x) {
			r.Fail(fmt.Sprintf("%d overflows %s", x, p.typ))
			return
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		x := r.F64()
		if v.OverflowFloat(x) {
			r.Fail(fmt.Sprintf("%g overflows %s", x, p.typ))
			return
		}
		v.SetFloat(x)
	case reflect.String:
		v.SetString(r.String())
	case reflect.Slice:
		// Even an element that takes no bytes counts as one here, so
		// the loop below is no longer than the frame.
		n := r.Uvarint()
		if left := r.Remaining(); n > uint64(left/max(p.elem.min, 1)) {
			r.Fail(fmt.Sprintf("%d elements of %s exceed %d remaining bytes", n, p.typ, left))
			return
		}
		if n == 0 {
			return // empty and nil slices both decode as nil
		}
		s := reflect.MakeSlice(p.typ, int(n), int(n))
		for i := 0; i < int(n) && r.Err() == nil; i++ {
			readValue(r, p.elem, s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len() && r.Err() == nil; i++ {
			readValue(r, p.elem, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < len(p.fields) && r.Err() == nil; i++ {
			readValue(r, p.fields[i].plan, v.Field(p.fields[i].index))
		}
	}
}
