package pool

// Held returns how many nodes the client currently holds.
func (c *Client) Held() int {
	c.arb.mu.Lock()
	defer c.arb.mu.Unlock()
	return len(c.held)
}
