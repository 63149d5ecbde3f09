// Package pack implements the R-tree loading algorithms the paper studies
// (Section 2.2): Tuple-At-a-Time insertion (TAT) with Guttman's quadratic
// split, Nearest-X packing (NX, Roussopoulos–Leifker), and Hilbert Sort
// packing (HS, Kamel–Faloutsos). Sort-Tile-Recursive (STR) from the
// authors' companion paper is included as an extension/ablation.
//
// The packed loaders share the paper's "General Algorithm": order the
// rectangles of a level, fill nodes with consecutive groups of n, and
// recurse on the node MBRs until a single root remains. Each algorithm is
// just a different Ordering plugged into rtree.Pack.
package pack

import (
	"fmt"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/hilbert"
	"rtreebuf/internal/par"
	"rtreebuf/internal/rtree"
)

// Algorithm names a loading algorithm.
type Algorithm string

// The loading algorithms available to experiments and tools.
const (
	TATQuadratic Algorithm = "tat"        // tuple-at-a-time, quadratic split
	TATLinear    Algorithm = "tat-linear" // tuple-at-a-time, linear split (ablation)
	RStar        Algorithm = "rstar"      // tuple-at-a-time, R* heuristics (extension)
	NearestX     Algorithm = "nx"         // sort by center x, pack
	HilbertSort  Algorithm = "hs"         // sort by Hilbert value of center, pack
	STR          Algorithm = "str"        // sort-tile-recursive (extension)
)

// Algorithms lists every supported algorithm in the order the paper
// introduces them (extensions last).
func Algorithms() []Algorithm {
	return []Algorithm{TATQuadratic, NearestX, HilbertSort, TATLinear, RStar, STR}
}

// PaperAlgorithms lists only the three algorithms compared in the paper.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{TATQuadratic, NearestX, HilbertSort}
}

// Load builds an R-tree over items with the named algorithm.
func Load(alg Algorithm, p rtree.Params, items []rtree.Item) (*rtree.Tree, error) {
	switch alg {
	case TATQuadratic:
		p.Split = rtree.SplitQuadratic
		return loadTAT(p, items)
	case TATLinear:
		p.Split = rtree.SplitLinear
		return loadTAT(p, items)
	case RStar:
		p.Split = rtree.SplitRStar
		return loadTAT(p, items)
	case NearestX:
		return rtree.Pack(p, items, NearestXOrdering())
	case HilbertSort:
		return rtree.Pack(p, items, HilbertOrdering(hilbert.DefaultOrder))
	case STR:
		return rtree.Pack(p, items, STROrdering())
	default:
		return nil, fmt.Errorf("pack: unknown algorithm %q", alg)
	}
}

func loadTAT(p rtree.Params, items []rtree.Item) (*rtree.Tree, error) {
	t, err := rtree.New(p)
	if err != nil {
		return nil, err
	}
	t.InsertAll(items)
	return t, nil
}

// NearestXOrdering returns the NX ordering: rectangles sorted by the
// x-coordinate of their center. (The original paper gives no details; like
// Leutenegger–López we assume the rectangle's center is used.)
func NearestXOrdering() rtree.Ordering {
	return rtree.OrderingFunc(func(rects []geom.Rect, _ int) []int {
		p, _, _ := sortByCenter(rects)
		return indices(p)
	})
}

// HilbertOrdering returns the HS ordering: rectangles sorted by the
// Hilbert-curve distance of their center on a 2^order x 2^order grid over
// the unit square.
func HilbertOrdering(order uint) rtree.Ordering {
	return rtree.OrderingFunc(func(rects []geom.Rect, _ int) []int {
		xs, ys := centers(rects)
		return SortKeys(hilbert.EncodePoints(order, xs, ys))
	})
}

// STROrdering returns the Sort-Tile-Recursive ordering of
// Leutenegger–López–Edgington: sort by center x, cut the sequence into
// ceil(sqrt(P/n)) vertical slabs of n*ceil(sqrt(P/n)) rectangles, and sort
// each slab by center y. Grouping consecutive runs of n afterwards yields
// the STR tiling exactly.
func STROrdering() rtree.Ordering {
	return rtree.OrderingFunc(func(rects []geom.Rect, groupSize int) []int {
		p, tmp, ky := sortByCenter(rects)
		if groupSize < 1 {
			return indices(p)
		}
		leaves := (len(p) + groupSize - 1) / groupSize
		slabs := ceilSqrt(leaves)
		slabSize := slabs * groupSize
		// A slab is in (x, y, index) order, so a stable sort by y alone
		// leaves it in (y, x, index) order. Slabs are disjoint ranges of p
		// and tmp, so they sort side by side.
		par.Chunks(slabs, 1, func(lo, hi int) {
			for start := lo * slabSize; start < min(hi*slabSize, len(p)); start += slabSize {
				end := min(start+slabSize, len(p))
				rekey(p[start:end], ky)
				sortPairs(p[start:end], tmp[start:end])
			}
		})
		return indices(p)
	})
}

// sortByCenter returns the rectangles' indices in (center x, center y,
// index) order — the deterministic tie-break NX and STR share — with the
// kernel's scratch and the y keys, which STR sorts its slabs by.
func sortByCenter(rects []geom.Rect) (p, tmp []keyIdx, ky []uint64) {
	xs, ys := centers(rects)
	kx, ky := floatKeys(xs), floatKeys(ys)
	p = pairs(kx)
	tmp = make([]keyIdx, len(p))
	sortPairs(p, tmp)
	sortTiesBy(p, tmp, ky)
	return p, tmp, ky
}

// centers returns the coordinates of the rectangles' centers.
func centers(rects []geom.Rect) (xs, ys []float64) {
	xs, ys = make([]float64, len(rects)), make([]float64, len(rects))
	par.Chunks(len(rects), sortGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := rects[i].Center()
			xs[i], ys[i] = c.X, c.Y
		}
	})
	return xs, ys
}

// ceilSqrt returns ceil(sqrt(n)) for n >= 0 using integer arithmetic.
func ceilSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}
