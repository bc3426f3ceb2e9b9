package coord

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// Reports returns a copy of the kernel's current report view.
func (k *Kernel) Reports() map[core.NodeID]metrics.Report {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[core.NodeID]metrics.Report)
	for _, sub := range k.subs {
		sub.mu.Lock()
		for id, rep := range sub.reports {
			out[id] = rep
		}
		sub.mu.Unlock()
	}
	return out
}
