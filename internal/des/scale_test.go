//go:build scale

package des

// The 10,000-node world (100 clusters x 100 nodes): same assertions as
// the tier-1 row, about three minutes of wall time. Run by `make scale`,
// never under the race detector (a tenfold slowdown on a
// single-goroutine simulator).
func init() {
	scaleWorlds = append(scaleWorlds, scaleWorld{"10k", 100})
}
