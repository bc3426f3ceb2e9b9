package coord

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// Reports returns a copy of the kernel's current report view.
func (k *Kernel) Reports() map[core.NodeID]metrics.Report {
	out := make(map[core.NodeID]metrics.Report)
	k.EachReport(func(rep metrics.Report) bool {
		out[rep.Node] = rep
		return true
	})
	return out
}
