package rtree

import (
	"math"
	"sort"

	"rtreebuf/internal/geom"
)

// This file implements the R*-tree insertion heuristics of Beckmann,
// Kriegel, Schneider, and Seeger (SIGMOD 1990) — reference [1] of the
// paper. Three pieces plug into the shared insertion machinery:
//
//   - ChooseSubtree: at the level directly above the leaves, pick the
//     child whose MBR needs the least *overlap* enlargement (ties by area
//     enlargement, then area); higher up, least area enlargement as in
//     Guttman (chooseNode dispatches).
//   - OverflowTreatment: on the first overflow at each height during one
//     logical insertion, reinsert the reinsertFraction of entries
//     farthest from the node's center instead of splitting.
//   - Split: choose the split axis by minimum margin sum over all
//     distributions, then the distribution with minimum overlap between
//     the two groups (ties by minimum total area). It works on rectangles
//     alone, so it lives with the other splits (rstarSplitIndices).

// reinsertFraction is the share of an overflowing node's entries removed
// by forced reinsertion — the 30% the R* authors found best.
const reinsertFraction = 0.3

// insertCtx tracks which heights already performed forced reinsertion
// during one logical insertion, so OverflowTreatment reinserts at most
// once per level and then splits (the R* rule). A nil context disables
// reinsertion (used by CondenseTree, which is itself a reinsertion).
type insertCtx struct {
	reinserted map[int]bool
}

// overlapEnlargement returns how much the overlap between entries[i] and
// its siblings grows if entries[i] is extended to include r.
func overlapEnlargement(entries []entry, i int, r geom.Rect) float64 {
	grown := entries[i].rect.Union(r)
	var delta float64
	for j := range entries {
		if j == i {
			continue
		}
		delta += intersectArea(grown, entries[j].rect) - intersectArea(entries[i].rect, entries[j].rect)
	}
	return delta
}

func intersectArea(a, b geom.Rect) float64 {
	x, ok := a.Intersect(b)
	if !ok {
		return 0
	}
	return x.Area()
}

// chooseSubtreeRStar picks the child index of n (whose children are
// leaves) for rectangle r by minimum overlap enlargement, breaking ties
// by area enlargement and then by area.
func chooseSubtreeRStar(n *node, r geom.Rect) int {
	best := -1
	var bestOverlap, bestEnl, bestArea float64
	for i := range n.entries {
		ov := overlapEnlargement(n.entries, i, r)
		enl := n.entries[i].rect.Enlargement(r)
		area := n.entries[i].rect.Area()
		better := best == -1 || ov < bestOverlap ||
			(ov == bestOverlap && (enl < bestEnl || (enl == bestEnl && area < bestArea)))
		if better {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// forcedReinsert removes the reinsertFraction of n's entries whose
// centers lie farthest from the center of n's MBR, tightens the ancestors,
// and reinserts the removed entries closest-first at n's height.
func (t *Tree) forcedReinsert(n *node, ctx *insertCtx) {
	p := int(math.Ceil(reinsertFraction * float64(t.params.MaxEntries)))
	if p < 1 {
		p = 1
	}
	if p >= len(n.entries) {
		p = len(n.entries) - 1
	}
	center := n.mbr().Center()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		c := e.rect.Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		des[i] = distEntry{e, dx*dx + dy*dy}
	}
	sort.SliceStable(des, func(a, b int) bool { return des[a].d > des[b].d }) // farthest first

	removed := des[:p]
	kept := n.entries[:0]
	for _, de := range des[p:] {
		kept = append(kept, de.e)
	}
	clear(n.entries[len(kept):]) // no stale child pointer past the length
	n.entries = kept
	t.adjustUpward(n)

	// Close reinsert: start with the entry closest to the node's center.
	for i := len(removed) - 1; i >= 0; i-- {
		t.insertEntryCtx(removed[i].e, n.height, ctx)
	}
}
