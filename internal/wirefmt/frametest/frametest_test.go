package frametest

import (
	"reflect"
	"testing"
)

// The one normalisation equal makes is an empty slice for a nil one, at
// any depth; nil and empty maps, and unexported fields, stay apart.
func TestEqualNormalisesOnlySlices(t *testing.T) {
	type inner struct{ Xs []int }
	type frame struct {
		In     []inner
		M      map[string]int
		hidden string
	}
	for _, tc := range []struct {
		a, b frame
		want bool
	}{
		{frame{In: []inner{{Xs: []int{}}}}, frame{In: []inner{{}}}, true},
		{frame{In: []inner{}}, frame{}, true},
		{frame{M: map[string]int{}}, frame{}, false},
		{frame{M: map[string]int{"a": 1}}, frame{M: map[string]int{"a": 2}}, false},
		{frame{hidden: "x"}, frame{}, false},
	} {
		if got := equal(reflect.ValueOf(tc.a), reflect.ValueOf(tc.b)); got != tc.want {
			t.Errorf("equal(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
