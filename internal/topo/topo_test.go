package topo

import "testing"

// Every endpoint name the runtime builds parses back to its cluster,
// for the link model (satin), the fault rules (chaos) and the per-pair
// counters (wire) alike.
func TestClusterOf(t *testing.T) {
	for _, tc := range []struct {
		endpoint string
		want     ClusterID
	}{
		{"satin:" + string(NodeName("fs0", 3)), "fs0"},
		{"reg:" + string(NodeName("fs0", 3)), "fs0"},
		{SubCoordinatorEndpoint("coordinator", "fs1"), "fs1"},
		{"coordinator", ""},
		{"registry", ""},
		{"satind", ""},
		{"", ""},
	} {
		if got := ClusterOf(tc.endpoint); got != tc.want {
			t.Errorf("ClusterOf(%q) = %q, want %q", tc.endpoint, got, tc.want)
		}
	}
}
