package sim

import (
	"math"
	"sort"

	"rtreebuf/internal/geom"
)

// pointIndex maps a test point to the nodes whose hit rectangle might
// contain it: a uniform grid over the bounding box of all hit rectangles,
// each cell listing the rectangles overlapping it. Candidate lists are
// kept in ascending page order so LRU accesses replay in level order, the
// same deterministic order the brute-force scan uses.
type pointIndex struct {
	bounds geom.Rect
	res    int
	invX   float64
	invY   float64
	cells  [][]int32
}

// newPointIndex builds the index. Resolution scales with sqrt of the node
// count, clamped to [8, 512]: finer grids stop paying off once candidate
// lists are short.
func newPointIndex(hitRects []geom.Rect) *pointIndex {
	res := int(math.Sqrt(float64(len(hitRects)))) * 2
	if res < 8 {
		res = 8
	}
	if res > 512 {
		res = 512
	}
	idx := &pointIndex{bounds: geom.MBR(hitRects), res: res}
	w, h := idx.bounds.Width(), idx.bounds.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	idx.invX = float64(res) / w
	idx.invY = float64(res) / h
	idx.cells = make([][]int32, res*res)
	for page, r := range hitRects {
		x0, y0 := idx.cellOf(geom.Point{X: r.MinX, Y: r.MinY})
		x1, y1 := idx.cellOf(geom.Point{X: r.MaxX, Y: r.MaxY})
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				idx.cells[iy*res+ix] = append(idx.cells[iy*res+ix], int32(page))
			}
		}
	}
	for _, cell := range idx.cells {
		sort.Slice(cell, func(a, b int) bool { return cell[a] < cell[b] })
	}
	return idx
}

func (idx *pointIndex) cellOf(p geom.Point) (ix, iy int) {
	ix = int((p.X - idx.bounds.MinX) * idx.invX)
	iy = int((p.Y - idx.bounds.MinY) * idx.invY)
	if ix >= idx.res {
		ix = idx.res - 1
	}
	if iy >= idx.res {
		iy = idx.res - 1
	}
	if ix < 0 {
		ix = 0
	}
	if iy < 0 {
		iy = 0
	}
	return ix, iy
}

// candidates returns the pages whose hit rectangle may contain p, in
// ascending page order: the index's own cell list, which callers must not
// modify. Points outside the indexed bounds have no candidates.
func (idx *pointIndex) candidates(p geom.Point) []int32 {
	if !idx.bounds.ContainsPoint(p) {
		return nil
	}
	ix, iy := idx.cellOf(p)
	return idx.cells[iy*idx.res+ix]
}
