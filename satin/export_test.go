package satin

import (
	"repro/internal/steal"
	"repro/internal/wirefmt"
)

// StealStats snapshots the node's steal-attempt counters.
func (n *Node) StealStats() steal.Stats {
	n.members.mu.Lock()
	defer n.members.mu.Unlock()
	return n.members.eng.Stats()
}

// Test-only views of a node's job-ownership state.

// pendingLen is the size of the pending table: submitted roots plus
// jobs that left the node and have not reported back.
func (n *Node) pendingLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// registrations counts the entries ever written to the pending table
// (every one takes the next ID).
func (n *Node) registrations() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextID
}

// heldBy counts the pending jobs whose recorded holder is id.
func (n *Node) heldBy(id NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := 0
	for _, pj := range n.pending {
		if pj.holder == id {
			k++
		}
	}
	return k
}

// EncodePayload and DecodePayload run the payload codec alone, for the
// round-trip table of the external tests. DecodePayload fails unless
// the payload takes exactly b.
func EncodePayload(v any) ([]byte, error) { return appendPayload(nil, v) }

func DecodePayload(b []byte) (any, error) {
	r := wirefmt.NewReader(b)
	v := readPayload(&r)
	return v, r.Finish()
}
