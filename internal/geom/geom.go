// Package geom provides the two-dimensional geometric primitives used
// throughout the repository: points, axis-parallel rectangles, and the
// operations on them that R-trees and the buffer-aware cost model require
// (area, margin, intersection, union, containment, expansion, clamping to
// the unit square).
//
// Following the paper, all data is normalized to the unit square
// U = [0,1] x [0,1]. Most functions operate on arbitrary rectangles, but
// helpers that implement the boundary corrections of Section 3.1 of the
// paper (query-corner domain U', clipped access probabilities) assume the
// unit square.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Rect is a closed axis-parallel rectangle [MinX,MaxX] x [MinY,MaxY].
// A Rect is valid when MinX <= MaxX and MinY <= MaxY. Degenerate
// rectangles (zero width and/or height) are valid and represent line
// segments or points; they arise naturally when indexing point data.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// UnitSquare is the normalized data space U = [0,1] x [0,1] used by the paper.
var UnitSquare = Rect{0, 0, 1, 1}

// RectFromPoints returns the smallest rectangle containing both points.
func RectFromPoints(a, b Point) Rect {
	return Rect{
		MinX: min(a.X, b.X),
		MinY: min(a.Y, b.Y),
		MaxX: max(a.X, b.X),
		MaxY: max(a.Y, b.Y),
	}
}

// RectAround returns the rectangle of size w x h centered at c.
func RectAround(c Point, w, h float64) Rect {
	return Rect{c.X - w/2, c.Y - h/2, c.X + w/2, c.Y + h/2}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{p.X, p.Y, p.X, p.Y}
}

// Valid reports whether r has non-negative extent on both axes.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Width returns the x-extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y-extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have zero area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r (the sum of its extents).
// The cost model of the paper uses the per-axis extent sums Lx and Ly;
// Margin is their per-rectangle counterpart, used by packing quality metrics.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r. Packing algorithms (NX, HS, STR)
// order rectangles by their centers.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count, matching the paper's closed-rectangle
// intersection queries).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the common region of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return Rect{
		MinX: min(r.MinX, p.X),
		MinY: min(r.MinY, p.Y),
		MaxX: max(r.MaxX, p.X),
		MaxY: max(r.MaxY, p.Y),
	}
}

// Enlargement returns the increase in area of r needed to include s.
// Guttman's ChooseLeaf picks the child whose MBR needs least enlargement.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Expand returns r grown by dx on each side in x and dy on each side in y,
// keeping the center fixed. This is the R -> R' expansion of Section 3.2
// (data-driven queries) when called as Expand(qx/2, qy/2)... Note: the paper
// expands by qx total on dimension x; use ExpandTotal for that convention.
func (r Rect) Expand(dx, dy float64) Rect {
	return Rect{r.MinX - dx, r.MinY - dy, r.MaxX + dx, r.MaxY + dy}
}

// ExpandTotal returns r with its width grown by qx and height by qy,
// center fixed — exactly the R' of Fig. 4 in the paper: a query of size
// qx x qy intersects R iff the query center lies inside ExpandTotal(qx,qy).
func (r Rect) ExpandTotal(qx, qy float64) Rect {
	return r.Expand(qx/2, qy/2)
}

// ExtendCorner returns the Kamel–Faloutsos extended rectangle
// R' = <(a,b),(c+qx,d+qy)>: a query of size qx x qy intersects R iff the
// query's top-right corner lies inside ExtendCorner(qx,qy) (Fig. 2).
func (r Rect) ExtendCorner(qx, qy float64) Rect {
	return Rect{r.MinX, r.MinY, r.MaxX + qx, r.MaxY + qy}
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.MinX + dx, r.MinY + dy, r.MaxX + dx, r.MaxY + dy}
}

// Scale returns r with both corners multiplied by s (scaling about the origin).
func (r Rect) Scale(s float64) Rect {
	return Rect{r.MinX * s, r.MinY * s, r.MaxX * s, r.MaxY * s}
}

// Clamp returns r clipped to bounds. If r lies entirely outside bounds the
// result is a degenerate rectangle on the boundary of bounds.
func (r Rect) Clamp(bounds Rect) Rect {
	return Rect{
		MinX: clamp(r.MinX, bounds.MinX, bounds.MaxX),
		MinY: clamp(r.MinY, bounds.MinY, bounds.MaxY),
		MaxX: clamp(r.MaxX, bounds.MinX, bounds.MaxX),
		MaxY: clamp(r.MaxY, bounds.MinY, bounds.MaxY),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApproxEqual reports whether a and b differ by at most eps. R-tree MBRs
// are unions and products of many float64 values, so exact == on derived
// quantities encodes an accident of rounding, not a geometric fact.
func ApproxEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Equal reports exact equality of all four coordinates. This is the
// identity check used by the structural invariants (an internal entry's
// rectangle must be bit-for-bit the MBR of its child, because both are
// computed by the same Union fold); for tolerant comparison use
// AlmostEqual.
func (r Rect) Equal(s Rect) bool { return r == s }

// AlmostEqual reports equality of all four coordinates within eps.
func (r Rect) AlmostEqual(s Rect, eps float64) bool {
	return ApproxEqual(r.MinX, s.MinX, eps) &&
		ApproxEqual(r.MinY, s.MinY, eps) &&
		ApproxEqual(r.MaxX, s.MaxX, eps) &&
		ApproxEqual(r.MaxY, s.MaxY, eps)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// MBR returns the minimum bounding rectangle of rects.
// It panics if rects is empty: an MBR of nothing is undefined and asking
// for one always indicates a bug in the caller.
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("geom: MBR of empty slice")
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out
}

// MBRPoints returns the minimum bounding rectangle of points.
// It panics if points is empty.
func MBRPoints(points []Point) Rect {
	if len(points) == 0 {
		panic("geom: MBRPoints of empty slice")
	}
	out := PointRect(points[0])
	for _, p := range points[1:] {
		out = out.UnionPoint(p)
	}
	return out
}

// TotalArea returns the sum of areas of rects (the quantity A of the paper).
func TotalArea(rects []Rect) float64 {
	var a float64
	for _, r := range rects {
		a += r.Area()
	}
	return a
}

// Normalize maps rects into the unit square: it computes the MBR of all
// rects and applies the affine map taking that MBR onto [0,1] x [0,1]
// (uniform scale on each axis independently, as in the paper's
// normalization of all data sets). It returns the normalized copies.
// Degenerate overall extent on an axis maps every coordinate to 0.
func Normalize(rects []Rect) []Rect {
	if len(rects) == 0 {
		return nil
	}
	bb := MBR(rects)
	sx := safeInv(bb.Width())
	sy := safeInv(bb.Height())
	out := make([]Rect, len(rects))
	for i, r := range rects {
		out[i] = Rect{
			MinX: (r.MinX - bb.MinX) * sx,
			MinY: (r.MinY - bb.MinY) * sy,
			MaxX: (r.MaxX - bb.MinX) * sx,
			MaxY: (r.MaxY - bb.MinY) * sy,
		}
	}
	return out
}

// NormalizePoints maps points into the unit square, as Normalize does for
// rectangles.
func NormalizePoints(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	bb := MBRPoints(points)
	sx := safeInv(bb.Width())
	sy := safeInv(bb.Height())
	out := make([]Point, len(points))
	for i, p := range points {
		out[i] = Point{(p.X - bb.MinX) * sx, (p.Y - bb.MinY) * sy}
	}
	return out
}

func safeInv(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return 1 / v
}

// Centers returns the center point of every rectangle, in order.
func Centers(rects []Rect) []Point {
	out := make([]Point, len(rects))
	for i, r := range rects {
		out[i] = r.Center()
	}
	return out
}

// PointRects converts points to degenerate rectangles, in order.
func PointRects(points []Point) []Rect {
	out := make([]Rect, len(points))
	for i, p := range points {
		out[i] = PointRect(p)
	}
	return out
}
