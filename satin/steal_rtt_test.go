package satin

import (
	"math"
	"testing"
)

// The steal round-trip buckets must resolve a LAN steal (hundreds of
// microseconds) and a WAN one (milliseconds) alike: from 25µs to past
// the 6.5s an attempt can take, no bucket's upper edge is more than √2
// above its lower one.
func TestStealRTTBucketsResolveARoundTrip(t *testing.T) {
	b := stealRTTBuckets
	if b[0] > 25e-6 || b[len(b)-1] < 6.5 {
		t.Fatalf("buckets span [%g, %g] s, want at least [25µs, 6.5s]", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if r := b[i] / b[i-1]; r <= 1 || r > math.Sqrt2*(1+1e-9) {
			t.Fatalf("bucket %d: %g s over %g s is a ratio of %g, want (1, √2]", i, b[i], b[i-1], r)
		}
	}
}
