package rtree

import (
	"math"
	"sort"

	"rtreebuf/internal/geom"
)

// SplitIndices distributes the rectangles of an overflowing node into
// two groups, returned as index lists into rects. It is the node-split
// heuristic decoupled from tree internals — the one distribution code
// both the in-memory tree (Tree.split) and the paged update path call,
// so the same rectangles split the same way wherever the node lives.
//
// alg selects the heuristic: Guttman's PickSeeds/PickNext from linear
// seeds for SplitLinear, from quadratic seeds for SplitQuadratic, and
// the R* topological split for SplitRStar. Only the split is shared
// under SplitRStar: its forced-reinsertion machinery needs whole-tree
// context a page-at-a-time updater does not have, and stays with the
// in-memory tree. Both index lists hold at least minFill indices (for a
// set of at least 2*minFill rectangles) and together cover every index
// exactly once; the order within each list is the order the entries
// take in their new node.
func SplitIndices(alg SplitAlgorithm, minFill int, rects []geom.Rect) (left, right []int) {
	var s1, s2 int
	switch alg {
	case SplitRStar:
		return rstarSplitIndices(minFill, rects)
	case SplitLinear:
		s1, s2 = linearSeeds(rects)
	default:
		s1, s2 = quadraticSeeds(rects)
	}

	// Each group leaves the other at least its seed.
	left = make([]int, 1, len(rects)-1)
	right = make([]int, 1, len(rects)-1)
	left[0], right[0] = s1, s2
	leftMBR, rightMBR := rects[s1], rects[s2]

	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}

	for len(remaining) > 0 {
		// If one group must absorb everything left to reach minimum fill,
		// assign the remainder wholesale.
		if len(left)+len(remaining) == minFill {
			left = append(left, remaining...)
			break
		}
		if len(right)+len(remaining) == minFill {
			right = append(right, remaining...)
			break
		}

		// PickNext: entry with the greatest preference for one group,
		// measured by the difference in enlargement cost.
		bestIdx, bestDiff := 0, -1.0
		for i, ri := range remaining {
			d1 := leftMBR.Union(rects[ri]).Area() - leftMBR.Area()
			d2 := rightMBR.Union(rects[ri]).Area() - rightMBR.Area()
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		ri := remaining[bestIdx]
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]

		// Distribute: least enlargement, ties by smaller area, then fewer
		// entries (Guttman's resolution order).
		d1 := leftMBR.Union(rects[ri]).Area() - leftMBR.Area()
		d2 := rightMBR.Union(rects[ri]).Area() - rightMBR.Area()
		toLeft := d1 < d2
		if d1 == d2 {
			a1, a2 := leftMBR.Area(), rightMBR.Area()
			if a1 != a2 {
				toLeft = a1 < a2
			} else {
				toLeft = len(left) <= len(right)
			}
		}
		if toLeft {
			left = append(left, ri)
			leftMBR = leftMBR.Union(rects[ri])
		} else {
			right = append(right, ri)
			rightMBR = rightMBR.Union(rects[ri])
		}
	}
	return left, right
}

// quadraticSeeds implements Guttman's PickSeeds: choose the pair of
// rectangles that would waste the most area if placed together, i.e. the
// pair maximizing area(union) - area(a) - area(b).
func quadraticSeeds(rects []geom.Rect) (int, int) {
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

// linearSeeds implements Guttman's linear PickSeeds: on each axis find the
// pair with the greatest normalized separation (highest low side vs lowest
// high side) and take the more separated axis.
func linearSeeds(rects []geom.Rect) (int, int) {
	type axisPick struct {
		lo, hi int     // rectangle with highest low side / lowest high side
		sep    float64 // normalized separation
	}
	pick := func(lowSide, highSide func(geom.Rect) float64) axisPick {
		lowestLow, highestHigh := math.Inf(1), math.Inf(-1)
		highestLowIdx, lowestHighIdx := 0, 0
		highestLow, lowestHigh := math.Inf(-1), math.Inf(1)
		for i, r := range rects {
			lo, hi := lowSide(r), highSide(r)
			lowestLow = math.Min(lowestLow, lo)
			highestHigh = math.Max(highestHigh, hi)
			if lo > highestLow {
				highestLow, highestLowIdx = lo, i
			}
			if hi < lowestHigh {
				lowestHigh, lowestHighIdx = hi, i
			}
		}
		width := highestHigh - lowestLow
		if width <= 0 {
			width = 1
		}
		return axisPick{highestLowIdx, lowestHighIdx, (highestLow - lowestHigh) / width}
	}
	px := pick(minX, maxX)
	py := pick(minY, maxY)
	best := px
	if py.sep > px.sep {
		best = py
	}
	if best.lo == best.hi {
		// All rectangles identical on the chosen axis; fall back to the
		// first two entries to guarantee distinct seeds.
		if best.lo == 0 {
			return 0, 1
		}
		return 0, best.lo
	}
	return best.lo, best.hi
}

// The sides of a rectangle, as sort and separation keys.
func minX(r geom.Rect) float64 { return r.MinX }
func maxX(r geom.Rect) float64 { return r.MaxX }
func minY(r geom.Rect) float64 { return r.MinY }
func maxY(r geom.Rect) float64 { return r.MaxY }

// rstarSplitIndices is the R* topological split (Beckmann et al.):
// choose the split axis by minimum margin sum over all distributions of
// the low- and high-side sorts, then on that axis the distribution with
// minimum overlap between the two groups (ties by minimum total area).
func rstarSplitIndices(m int, rects []geom.Rect) (left, right []int) {
	total := len(rects)

	// order returns the indices of rects stably sorted by key, ties by tie.
	order := func(key, tie func(geom.Rect) float64) []int {
		perm := make([]int, total)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool {
			a, b := rects[perm[i]], rects[perm[j]]
			if key(a) != key(b) {
				return key(a) < key(b)
			}
			return tie(a) < tie(b)
		})
		return perm
	}
	// The four candidate sorts: by lower and by upper value per axis.
	xs := [2][]int{order(minX, maxX), order(maxX, minX)}
	ys := [2][]int{order(minY, maxY), order(maxY, minY)}

	// prefix[i] is the MBR of the first i+1 rectangles of a sort and
	// suffix[i] the MBR of those from position i on; refilled per sort.
	prefix, suffix := make([]geom.Rect, total), make([]geom.Rect, total)
	sweep := func(perm []int) {
		prefix[0] = rects[perm[0]]
		for i := 1; i < total; i++ {
			prefix[i] = prefix[i-1].Union(rects[perm[i]])
		}
		suffix[total-1] = rects[perm[total-1]]
		for i := total - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(rects[perm[i]])
		}
	}

	// ChooseSplitAxis: margin sum over all distributions of both sorts.
	marginSum := func(perm []int) float64 {
		sweep(perm)
		var s float64
		for k := m; k <= total-m; k++ {
			s += prefix[k-1].Margin() + suffix[k].Margin()
		}
		return s
	}
	axis := xs
	if marginSum(xs[0])+marginSum(xs[1]) > marginSum(ys[0])+marginSum(ys[1]) {
		axis = ys
	}

	// ChooseSplitIndex: minimum overlap, ties by minimum total area.
	var bestPerm []int
	bestK := 0
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, perm := range axis {
		sweep(perm)
		for k := m; k <= total-m; k++ {
			ov := intersectArea(prefix[k-1], suffix[k])
			area := prefix[k-1].Area() + suffix[k].Area()
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				bestPerm, bestK = perm, k
			}
		}
	}
	return bestPerm[:bestK:bestK], bestPerm[bestK:]
}
