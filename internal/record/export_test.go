package record

// EventsDropped reports how many events were overwritten by ring
// wraparound.
func (r *Recorder) EventsDropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsDropped
}

// SamplesDropped reports how many samples were overwritten by ring
// wraparound.
func (r *Recorder) SamplesDropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samplesDropped
}

// Samples returns the retained samples, oldest first.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples.all()
}
