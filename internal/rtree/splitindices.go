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
// take in their node after the split.
func SplitIndices(alg SplitAlgorithm, minFill int, rects []geom.Rect) (left, right []int) {
	var s splitLists
	return s.split(alg, minFill, rects)
}

// splitLists holds the index lists of a Guttman split: the two groups
// and the entries not yet assigned to either. A zero value sizes them to
// the split; a reused one keeps its arrays for the next split of as many
// rectangles, which is how Tree.split allocates none of them.
type splitLists struct {
	left, right, remaining []int
}

// split is SplitIndices over s's arrays: the returned groups alias
// s.left and s.right until the next call. The R* split keeps its own
// lists.
func (s *splitLists) split(alg SplitAlgorithm, minFill int, rects []geom.Rect) (left, right []int) {
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
	// Every append to the lists stays within the capacity reuse gave.
	left = append(reuse(s.left, len(rects)-1), s1)   //lint:allow hotalloc within reuse's capacity
	right = append(reuse(s.right, len(rects)-1), s2) //lint:allow hotalloc within reuse's capacity
	leftMBR, rightMBR := rects[s1], rects[s2]
	leftArea, rightArea := leftMBR.Area(), rightMBR.Area()

	remaining := reuse(s.remaining, len(rects)-2)
	for i := range rects {
		if i != s1 && i != s2 {
			remaining = append(remaining, i) //lint:allow hotalloc within reuse's capacity
		}
	}

	// enl1[k] and enl2[k] are the enlargements remaining[k] would cost the
	// left and the right group. A column changes only when its group's MBR
	// grows, so each step recomputes at most one.
	var stack1, stack2 [splitStackEntries]float64
	enl1, enl2 := stack1[:], stack2[:]
	if len(remaining) > splitStackEntries {
		//lint:allow hotalloc nodes of over 128 entries only; a 4 KiB page holds 102
		enl1, enl2 = make([]float64, len(remaining)), make([]float64, len(remaining))
	}
	enl1, enl2 = enl1[:len(remaining)], enl2[:len(remaining)]
	for k, ri := range remaining {
		enl1[k] = leftMBR.Union(rects[ri]).Area() - leftArea
		enl2[k] = rightMBR.Union(rects[ri]).Area() - rightArea
	}

	for len(remaining) > 0 {
		// If one group must absorb everything left to reach minimum fill,
		// assign the remainder wholesale.
		if len(left)+len(remaining) == minFill {
			left = append(left, remaining...) //lint:allow hotalloc within reuse's capacity
			break
		}
		if len(right)+len(remaining) == minFill {
			right = append(right, remaining...) //lint:allow hotalloc within reuse's capacity
			break
		}

		// PickNext: entry with the greatest preference for one group,
		// measured by the difference in enlargement cost.
		bestIdx, bestDiff := 0, -1.0
		for k := range remaining {
			diff := math.Abs(enl1[k] - enl2[k])
			if diff > bestDiff {
				bestIdx, bestDiff = k, diff
			}
		}
		ri, d1, d2 := remaining[bestIdx], enl1[bestIdx], enl2[bestIdx]
		last := len(remaining) - 1
		remaining[bestIdx], enl1[bestIdx], enl2[bestIdx] = remaining[last], enl1[last], enl2[last]
		remaining, enl1, enl2 = remaining[:last], enl1[:last], enl2[:last]

		// Distribute: least enlargement, ties by smaller area, then fewer
		// entries (Guttman's resolution order).
		toLeft := d1 < d2
		if d1 == d2 {
			if leftArea != rightArea {
				toLeft = leftArea < rightArea
			} else {
				toLeft = len(left) <= len(right)
			}
		}
		if toLeft {
			left = append(left, ri) //lint:allow hotalloc within reuse's capacity
			leftMBR, leftArea = growColumn(leftMBR, leftArea, rects[ri], rects, remaining, enl1)
		} else {
			right = append(right, ri) //lint:allow hotalloc within reuse's capacity
			rightMBR, rightArea = growColumn(rightMBR, rightArea, rects[ri], rects, remaining, enl2)
		}
	}
	s.left, s.right, s.remaining = left, right, remaining
	return left, right
}

// reuse returns s emptied, or a new empty slice if s cannot hold n.
func reuse(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, 0, n) //lint:allow hotalloc once per tree in Tree.split; SplitIndices' own lists
	}
	return s[:0]
}

// splitStackEntries bounds the nodes whose PickNext columns SplitIndices
// keeps on the stack, so that no node a 4 KiB page holds (102 entries)
// allocates for them.
const splitStackEntries = 128

// growColumn extends a group's MBR mbr (of area area) by r and returns
// the new MBR and area. If the MBR grew, it recomputes the group's
// enlargement column enl for the remaining entries; otherwise every
// value in it is unchanged, operand for operand.
func growColumn(mbr geom.Rect, area float64, r geom.Rect, rects []geom.Rect, remaining []int, enl []float64) (geom.Rect, float64) {
	grown := mbr.Union(r)
	if sameBits(grown, mbr) {
		return mbr, area
	}
	area = grown.Area()
	for k, ri := range remaining {
		enl[k] = grown.Union(rects[ri]).Area() - area
	}
	return grown, area
}

// sameBits reports whether a and b have identical coordinates bit for
// bit, so that -0 and +0 count as different.
func sameBits(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// quadraticSeeds implements Guttman's PickSeeds: choose the pair of
// rectangles that would waste the most area if placed together, i.e. the
// pair maximizing area(union) - area(a) - area(b).
func quadraticSeeds(rects []geom.Rect) (int, int) {
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		ri, ai := rects[i], rects[i].Area()
		for j := i + 1; j < len(rects); j++ {
			d := ri.Union(rects[j]).Area() - ai - rects[j].Area()
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
	//lint:allow hotalloc the closure does not escape and stays on the stack
	pick := func(lowSide, highSide func(geom.Rect) float64) axisPick {
		lowestLow, highestHigh := math.Inf(1), math.Inf(-1)
		highestLowIdx, lowestHighIdx := 0, 0
		highestLow, lowestHigh := math.Inf(-1), math.Inf(1)
		for i, r := range rects {
			lo, hi := lowSide(r), highSide(r)
			lowestLow = min(lowestLow, lo)
			highestHigh = max(highestHigh, hi)
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
	order := func(key, tie func(geom.Rect) float64) []int { //lint:allow hotalloc R* only; no workload runs it
		perm := make([]int, total) //lint:allow hotalloc R* only; no workload runs it
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool { //lint:allow hotalloc R* only; no workload runs it
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
	//lint:allow hotalloc R* only; no workload runs it
	prefix, suffix := make([]geom.Rect, total), make([]geom.Rect, total)
	sweep := func(perm []int) { //lint:allow hotalloc R* only; no workload runs it
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
	marginSum := func(perm []int) float64 { //lint:allow hotalloc R* only; no workload runs it
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
