package core

import (
	"fmt"
	"math"
)

// This file implements a fully analytical variant of the cost model in
// the spirit of Theodoridis–Sellis (PODS 1996), discussed in the paper's
// related work: predict R-tree query cost from data-set properties alone
// — cardinality, density, and node fanout — without building the tree.
// The paper's own model is hybrid (it consumes the real MBRs of a built
// tree); the analytical variant is what a query optimizer can evaluate
// before an index exists. Combining it with the buffer model of this
// package yields a fully analytical *disk access* prediction, an
// extension the paper leaves open.
//
// Assumptions (the usual TS ones): uniformly distributed square-ish data
// in the unit square and a well-packed tree whose level-j nodes are
// squares of equal size. Accuracy degrades on skewed data — that is
// precisely why the paper prefers the hybrid approach; the tests compare
// both on uniform data, where they agree.

// AnalyticalParams describes a data set and tree without building either.
type AnalyticalParams struct {
	// N is the number of data rectangles. Must be positive.
	N int
	// Fanout is the average number of entries per node (packed trees:
	// the node capacity; insertion-loaded: capacity x fill factor).
	Fanout float64
	// Density is D_0: the expected number of data rectangles containing
	// a random point (the sum of data areas for unit-square data).
	// Zero for point data.
	Density float64
}

func (p AnalyticalParams) validate() error {
	if p.N < 1 {
		return fmt.Errorf("core: analytical model needs N >= 1, got %d", p.N)
	}
	if p.Fanout < 2 {
		return fmt.Errorf("core: analytical model needs fanout >= 2, got %g", p.Fanout)
	}
	if p.Density < 0 {
		return fmt.Errorf("core: negative density %g", p.Density)
	}
	return nil
}

// AnalyticalLevel is the predicted shape of one tree level.
type AnalyticalLevel struct {
	Level   int     // 1 = leaf-node level, increasing toward the root
	Nodes   float64 // expected number of nodes
	Side    float64 // expected node MBR side length (square assumption)
	Density float64 // D_j: expected nodes of this level covering a point
}

// AnalyticalLevels predicts the per-level structure: node counts from the
// fanout, node extents from the Theodoridis–Sellis density recursion
//
//	D_j = (1 + (sqrt(D_{j-1}) - 1) / sqrt(f))^2
//	side_j = sqrt(D_j * f^j / N), clamped to 1.
func AnalyticalLevels(p AnalyticalParams) ([]AnalyticalLevel, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	var out []AnalyticalLevel
	d := p.Density
	nodes := float64(p.N)
	for j := 1; nodes > 1; j++ {
		nodes = nodes / p.Fanout
		if nodes < 1 {
			nodes = 1
		}
		d = math.Pow(1+(math.Sqrt(d)-1)/math.Sqrt(p.Fanout), 2)
		capacityJ := float64(p.N) / nodes // objects per level-j node
		side := math.Sqrt(d * capacityJ / float64(p.N))
		if side > 1 {
			side = 1
		}
		out = append(out, AnalyticalLevel{Level: j, Nodes: nodes, Side: side, Density: d})
		if nodes == 1 { // nodes is clamped to exactly 1 above
			break
		}
	}
	if len(out) == 0 { // N <= fanout: a single (root) leaf
		out = append(out, AnalyticalLevel{Level: 1, Nodes: 1, Side: math.Min(1, math.Sqrt(math.Max(d, 0))), Density: d})
	}
	return out, nil
}

// AnalyticalPredictor builds a buffer-aware Predictor-compatible
// probability set from the analytical level structure: every level-j node
// gets the access probability min(1, side+qx) * min(1, side+qy). The
// result plugs into the same DiskAccesses machinery as the hybrid model,
// giving a fully analytical EDT — no tree required.
type AnalyticalPredictor struct {
	levels []AnalyticalLevel
	probs  []float64 // flattened, root level last (order is irrelevant)
	ept    float64
}

// NewAnalyticalPredictor evaluates the analytical model for a query size.
func NewAnalyticalPredictor(p AnalyticalParams, qx, qy float64) (*AnalyticalPredictor, error) {
	levels, err := AnalyticalLevels(p)
	if err != nil {
		return nil, err
	}
	if !(qx >= 0 && qy >= 0) || math.IsInf(qx+qy, 1) {
		return nil, fmt.Errorf("core: query size %gx%g is not finite and non-negative", qx, qy)
	}
	ap := &AnalyticalPredictor{levels: levels}
	for _, lvl := range levels {
		prob := math.Min(1, lvl.Side+qx) * math.Min(1, lvl.Side+qy)
		// The level has a fractional expected node count; materialize it
		// as floor(n) nodes at prob plus one partial node, so the
		// flattened probabilities preserve the level's expected accesses.
		whole := int(lvl.Nodes)
		for i := 0; i < whole; i++ {
			ap.probs = append(ap.probs, prob)
		}
		if frac := lvl.Nodes - float64(whole); frac > 1e-9 {
			ap.probs = append(ap.probs, prob*frac)
		}
		ap.ept += lvl.Nodes * prob
	}
	return ap, nil
}

// NodesVisited returns the analytical EPT.
func (ap *AnalyticalPredictor) NodesVisited() float64 { return ap.ept }

// NodeCount returns the (integerized) predicted node count.
func (ap *AnalyticalPredictor) NodeCount() int { return len(ap.probs) }

// Levels returns the per-level predictions (leaf-node level first).
func (ap *AnalyticalPredictor) Levels() []AnalyticalLevel { return ap.levels }

// DiskAccesses returns the fully analytical EDT for an LRU buffer of the
// given page capacity.
func (ap *AnalyticalPredictor) DiskAccesses(bufferSize int) float64 {
	return DiskAccesses(ap.probs, bufferSize)
}
