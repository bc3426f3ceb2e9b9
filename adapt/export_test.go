package adapt

// KillRoot crashes the current root incarnation — its endpoint and its
// registry session vanish, the sub-coordinators keep running — so tests
// can watch the tree replace it.
func (c *Coordinator) KillRoot() {
	c.mu.Lock()
	r := c.root
	c.mu.Unlock()
	r.kill()
}
