package core

import (
	"cmp"
	"slices"
)

// BadnessWeights are the α, β, γ coefficients of the paper's heuristic
// badness formulas:
//
//	proc_badness_i    = α·(1/speed_i) + β·ic_overhead_i + γ·inWorstCluster(i)
//	cluster_badness_c = α·(1/speed_c) + β·ic_overhead_c
//
// Speeds are relative (fastest = 1), so 1/speed >= 1. The paper chooses
// the coefficients empirically such that a few percent of inter-cluster
// overhead already dominates (it indicates a bandwidth problem) and such
// that processors of the worst cluster are preferentially evacuated
// (removing processors of a single cluster reduces the amount of
// wide-area communication).
type BadnessWeights struct {
	Alpha float64 // weight of the inverse relative speed term
	Beta  float64 // weight of the inter-cluster overhead term
	Gamma float64 // bonus for membership in the worst cluster
}

// DefaultBadnessWeights mirrors the empirically established constants
// documented in DESIGN.md (the paper's exact numerals are unreadable in
// the text we received; these reproduce the described behaviour).
func DefaultBadnessWeights() BadnessWeights {
	return BadnessWeights{Alpha: 1.0, Beta: 100.0, Gamma: 10.0}
}

// NodeBadness is a node's score: higher is worse.
type NodeBadness struct {
	Node    NodeID
	Cluster ClusterID
	Badness float64
}

// ClusterBadness is a cluster's score: higher is worse.
type ClusterBadness struct {
	Cluster   ClusterID
	Badness   float64
	InterComm float64 // the mean inter-cluster overhead of its reports
}

// ClusterPartial is one cluster's reports for one period, reduced to
// the sums the badness formulas and the culprit rule read. It is what
// the root coordinator holds per cluster (a coord.ClusterSummary
// carries these fields), and RankNodes reduces per-node stats to the
// same sums, so every ranking runs the same arithmetic.
type ClusterPartial struct {
	Cluster  ClusterID
	Stats    int     // reports summed below
	SpeedSum float64 // Σ speed
	SpeedMax float64 // fastest measured speed (0 = none measured)
	SpeedMin float64 // slowest measured speed (0 = none measured)
	InterSum float64 // Σ inter-cluster overhead fraction
	// Links sums the reports' transfer samples per peer cluster (nil
	// when no report carried one).
	Links map[ClusterID]LinkSample
}

// Add folds one report into the partial.
func (p *ClusterPartial) Add(s NodeStats) {
	p.Stats++
	p.SpeedSum += s.Speed
	p.addSpeed(s.Speed)
	p.InterSum += s.InterComm
	for peer, l := range s.Links {
		if p.Links == nil {
			p.Links = make(map[ClusterID]LinkSample)
		}
		p.Links[peer] = p.Links[peer].Plus(l)
	}
}

// addSpeed folds one measured speed into the extrema (0 = unmeasured).
func (p *ClusterPartial) addSpeed(speed float64) {
	if speed > 0 {
		p.SpeedMax = max(p.SpeedMax, speed)
		if p.SpeedMin == 0 || speed < p.SpeedMin {
			p.SpeedMin = speed
		}
	}
}

// partials reduces per-node stats to one partial per cluster, in
// ClusterID order; each cluster's reports are summed in input order.
func partials(stats []NodeStats) []ClusterPartial {
	index := make(map[ClusterID]int)
	var parts []ClusterPartial
	for _, s := range stats {
		i, ok := index[s.Cluster]
		if !ok {
			i = len(parts)
			index[s.Cluster] = i
			parts = append(parts, ClusterPartial{Cluster: s.Cluster})
		}
		parts[i].Add(s)
	}
	slices.SortFunc(parts, func(a, b ClusterPartial) int { return cmp.Compare(a.Cluster, b.Cluster) })
	return parts
}

// Candidate is one node a ranking scores.
type Candidate struct {
	Node      NodeID
	Cluster   ClusterID
	Speed     float64 // measured speed (0 = unmeasured)
	InterComm float64 // inter-cluster overhead fraction
}

// SpeedRange returns the fastest and the slowest measured speed over
// the partials (0 when no report measured one): the normalisation of
// every relative speed in the period.
func SpeedRange(parts []ClusterPartial) (fastest, slowest float64) {
	for _, p := range parts {
		fastest = max(fastest, p.SpeedMax)
		if p.SpeedMin > 0 && (slowest == 0 || p.SpeedMin < slowest) {
			slowest = p.SpeedMin
		}
	}
	return fastest, slowest
}

// relativeSpeed is a node's speed relative to the fastest measured one.
// An unmeasured node counts as the slowest measured node, and when no
// node was measured every node counts as 1 (a homogeneous fleet).
func relativeSpeed(speed, fastest, slowest float64) float64 {
	switch {
	case fastest == 0:
		return 1
	case speed > 0:
		return speed / fastest
	default:
		return slowest / fastest
	}
}

// invSpeed guards the 1/speed term against zero speeds: an unmeasured or
// stopped node is maximally slow but must not produce +Inf, which would
// defeat the β and γ terms entirely.
func invSpeed(rel float64) float64 {
	const floor = 1e-3
	if rel < floor {
		rel = floor
	}
	return 1 / rel
}

// RankClusters computes cluster badness for every partial with reports
// and returns them sorted worst-first. A cluster's speed is the sum of
// its nodes' speeds relative to the fastest cluster's sum, its
// inter-cluster overhead the mean of its reports'. Ties break on
// ClusterID so the ranking is deterministic.
func RankClusters(parts []ClusterPartial, w BadnessWeights) []ClusterBadness {
	fastest := 0.0
	for _, p := range parts {
		if p.Stats > 0 {
			fastest = max(fastest, p.SpeedSum)
		}
	}
	out := make([]ClusterBadness, 0, len(parts))
	for _, p := range parts {
		if p.Stats == 0 {
			continue
		}
		rel := 1.0
		if fastest > 0 {
			rel = p.SpeedSum / fastest
		}
		inter := p.InterSum / float64(p.Stats)
		out = append(out, ClusterBadness{Cluster: p.Cluster, Badness: w.Alpha*invSpeed(rel) + w.Beta*inter, InterComm: inter})
	}
	slices.SortFunc(out, func(a, b ClusterBadness) int {
		if a.Badness != b.Badness {
			return cmp.Compare(b.Badness, a.Badness)
		}
		return cmp.Compare(a.Cluster, b.Cluster)
	})
	return out
}

// RankCandidates computes node badness for every candidate and returns
// them sorted worst-first. Speeds are relative to the fastest measured
// over all partials (relativeSpeed), and the members of the worst
// cluster (per RankClusters) get the γ bonus. Ties break on NodeID for
// determinism.
func RankCandidates(parts []ClusterPartial, cands []Candidate, w BadnessWeights) []NodeBadness {
	fastest, slowest := SpeedRange(parts)
	var worst ClusterID
	if clusters := RankClusters(parts, w); len(clusters) > 0 {
		worst = clusters[0].Cluster
	}
	out := make([]NodeBadness, 0, len(cands))
	for _, c := range cands {
		b := w.Alpha*invSpeed(relativeSpeed(c.Speed, fastest, slowest)) + w.Beta*c.InterComm
		if c.Cluster == worst {
			b += w.Gamma
		}
		out = append(out, NodeBadness{Node: c.Node, Cluster: c.Cluster, Badness: b})
	}
	slices.SortFunc(out, func(a, b NodeBadness) int {
		if a.Badness != b.Badness {
			return cmp.Compare(b.Badness, a.Badness)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return out
}

// RankNodes ranks every node of stats worst-first: the stats reduced to
// cluster partials and candidates, ranked by RankCandidates.
func RankNodes(stats []NodeStats, w BadnessWeights) []NodeBadness {
	if len(stats) == 0 {
		return nil
	}
	cands := make([]Candidate, len(stats))
	for i, s := range stats {
		cands[i] = Candidate{Node: s.Node, Cluster: s.Cluster, Speed: s.Speed, InterComm: s.InterComm}
	}
	return RankCandidates(partials(stats), cands, w)
}

// PairKey orders two cluster IDs canonically.
func PairKey(a, b ClusterID) [2]ClusterID {
	if b < a {
		a, b = b, a
	}
	return [2]ClusterID{a, b}
}

// BandwidthCulprit finds the cluster whose connectivity is the
// bottleneck: the participant cluster whose BEST pair bandwidth is the
// lowest. A congested access link degrades every pair the cluster is
// part of, while its neighbours keep healthy pairs among themselves —
// so comparing best-pair bandwidths separates the culprit from its
// collateral victims. A pair's bandwidth sums both partials' link
// samples with each other (both directions); pairs with fewer than
// minBytes of evidence are ignored as noise. Returns the culprit (the
// lower ClusterID on a tie), its best-pair bandwidth and the best
// bandwidth observed anywhere (the reference); ok is false when fewer
// than two pairs have evidence.
func BandwidthCulprit(parts []ClusterPartial, minBytes float64) (culprit ClusterID, bw, ref float64, ok bool) {
	pairs := make(map[[2]ClusterID]LinkSample)
	for _, p := range parts {
		for peer, l := range p.Links {
			if peer != p.Cluster {
				k := PairKey(p.Cluster, peer)
				pairs[k] = pairs[k].Plus(l)
			}
		}
	}
	best := make(map[ClusterID]float64)
	evidenced := 0
	for k, sample := range pairs {
		if sample.Bytes < minBytes {
			continue
		}
		evidenced++
		b := sample.Bandwidth()
		ref = max(ref, b)
		for _, c := range k {
			if b > best[c] {
				best[c] = b
			}
		}
	}
	if evidenced < 2 {
		return "", 0, 0, false
	}
	first := true
	for c, b := range best {
		if first || b < bw || (b == bw && c < culprit) {
			culprit, bw, first = c, b, false
		}
	}
	return culprit, bw, ref, true
}
