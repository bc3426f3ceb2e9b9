package workload

// Demand is the offered load in speed-seconds per second: the minimum
// aggregate speed the pipeline needs just to keep up with the source.
func (s StreamSpec) Demand() float64 { return s.RateHz * s.ItemWork() }
