// Package nd generalizes the system to arbitrary dimension d >= 2, the
// extension the paper claims is straightforward ("R-trees generalize
// easily to dimensions higher than two... Generalizations to higher
// dimensions are straightforward", Sections 2.1 and 3). It provides
// d-dimensional geometry, an n-dimensional Hilbert curve (Skilling's
// transform), a d-dimensional R-tree with Guttman insertion and packed
// loading, and the buffer-aware cost model — whose buffer mathematics are
// dimension-independent and therefore reused verbatim from internal/core.
//
// The package deliberately mirrors the 2-D API at reduced surface: it
// exists to demonstrate and test the generalization (see the
// "ext-dimensions" experiment), not to replace the 2-D packages, which
// carry the paper's actual evaluation.
package nd

import "fmt"

// Point is a location in d-dimensional space.
type Point []float64

// Rect is a closed axis-parallel box: Min[i] <= Max[i] for all i.
type Rect struct {
	Min, Max Point
}

// Dims returns the dimensionality of r.
func (r Rect) Dims() int { return len(r.Min) }

// NewRect validates and constructs a box. min and max must have the same
// positive length and min <= max componentwise.
func NewRect(min, max Point) (Rect, error) {
	if len(min) == 0 || len(min) != len(max) {
		return Rect{}, fmt.Errorf("nd: rect with %d/%d coordinates", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("nd: min[%d]=%g > max[%d]=%g", i, min[i], i, max[i])
		}
	}
	return Rect{Min: append(Point(nil), min...), Max: append(Point(nil), max...)}, nil
}

// PointRect returns the degenerate box covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: append(Point(nil), p...), Max: append(Point(nil), p...)}
}

// UnitCube returns [0,1]^d.
func UnitCube(d int) Rect {
	r := Rect{Min: make(Point, d), Max: make(Point, d)}
	for i := range r.Max {
		r.Max[i] = 1
	}
	return r
}

// Volume returns the d-dimensional volume (the generalization of area —
// the access probability of a node under uniform point queries).
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Min {
		v *= r.Max[i] - r.Min[i]
	}
	return v
}

// Margin returns the sum of the extents over all dimensions (the
// generalization of the Lx/Ly sums of Equation 2).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Extent returns the length of r along dimension i.
func (r Rect) Extent(i int) float64 { return r.Max[i] - r.Min[i] }

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// ContainsPoint reports whether p lies in r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest box containing r and s.
func (r Rect) Union(s Rect) Rect {
	out := Rect{Min: make(Point, len(r.Min)), Max: make(Point, len(r.Max))}
	for i := range r.Min {
		out.Min[i] = min(r.Min[i], s.Min[i])
		out.Max[i] = max(r.Max[i], s.Max[i])
	}
	return out
}

// Enlargement returns the volume increase of r needed to include s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Volume() - r.Volume()
}

// ExpandTotal returns r with extent i grown by q[i], center fixed — the
// d-dimensional R' of the data-driven model (Fig. 4 generalized).
func (r Rect) ExpandTotal(q []float64) Rect {
	out := Rect{Min: make(Point, len(r.Min)), Max: make(Point, len(r.Max))}
	for i := range r.Min {
		out.Min[i] = r.Min[i] - q[i]/2
		out.Max[i] = r.Max[i] + q[i]/2
	}
	return out
}

// MBR returns the minimum bounding box of rects; it panics on an empty
// slice (a caller bug, as in the 2-D package).
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("nd: MBR of empty slice")
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out
}

// checkDims panics when a mixed-dimension operation is attempted; every
// such case is a programming error in the caller.
func checkDims(d int, rects ...Rect) {
	for _, r := range rects {
		if r.Dims() != d {
			panic(fmt.Sprintf("nd: dimension mismatch: %d vs %d", r.Dims(), d))
		}
	}
}
