package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// labelEscaper escapes a registry name for use as a Prometheus label
// value (names contain '/' and '>', which are fine; quotes, backslashes
// and newlines are not).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format (version 0.0.4). Instruments keep their registry
// names as the "name" label of three fixed metric families —
// repro_counter, repro_gauge and repro_hist — so arbitrary
// "<layer>/<metric>/<label>" names need no sanitisation:
//
//	repro_counter{name="wire/frames_in/steal"} 17
//	repro_gauge{name="coord/health"} 0.42
//	repro_hist_bucket{name="satin/steal_rtt/local",le="0.001"} 5
func (r *Registry) WritePrometheus(w io.Writer) {
	counters := r.Snapshot()
	if len(counters) > 0 {
		fmt.Fprintf(w, "# HELP repro_counter Monotonic counters from the obs registry.\n")
		fmt.Fprintf(w, "# TYPE repro_counter counter\n")
		for _, name := range sortedKeys(counters) {
			fmt.Fprintf(w, "repro_counter{name=%q} %d\n", labelEscaper.Replace(name), counters[name])
		}
	}
	gauges := r.Gauges()
	if len(gauges) > 0 {
		fmt.Fprintf(w, "# HELP repro_gauge Instantaneous values from the obs registry.\n")
		fmt.Fprintf(w, "# TYPE repro_gauge gauge\n")
		for _, name := range sortedKeys(gauges) {
			fmt.Fprintf(w, "repro_gauge{name=%q} %g\n", labelEscaper.Replace(name), gauges[name])
		}
	}
	hists := r.Histograms()
	if len(hists) > 0 {
		fmt.Fprintf(w, "# HELP repro_hist Fixed-bucket histograms from the obs registry.\n")
		fmt.Fprintf(w, "# TYPE repro_hist histogram\n")
		for _, name := range sortedKeys(hists) {
			h := hists[name]
			esc := labelEscaper.Replace(name)
			cum := uint64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(w, "repro_hist_bucket{name=%q,le=%q} %d\n", esc, fmt.Sprintf("%g", b), cum)
			}
			cum += h.Counts[len(h.Bounds)]
			fmt.Fprintf(w, "repro_hist_bucket{name=%q,le=\"+Inf\"} %d\n", esc, cum)
			fmt.Fprintf(w, "repro_hist_sum{name=%q} %g\n", esc, h.Sum)
			fmt.Fprintf(w, "repro_hist_count{name=%q} %d\n", esc, h.Count)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
