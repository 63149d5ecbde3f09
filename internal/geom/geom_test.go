package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rect(minx, miny, maxx, maxy float64) Rect {
	return Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
}

// randRect draws a valid rectangle inside the unit square.
func randRect(rng *rand.Rand) Rect {
	x1, x2 := rng.Float64(), rng.Float64()
	y1, y2 := rng.Float64(), rng.Float64()
	return RectFromPoints(Point{x1, y1}, Point{x2, y2})
}

func TestRectBasics(t *testing.T) {
	r := rect(0.1, 0.2, 0.5, 0.8)
	if !r.Valid() {
		t.Fatal("valid rect reported invalid")
	}
	if got, want := r.Width(), 0.4; math.Abs(got-want) > 1e-15 {
		t.Errorf("Width = %g, want %g", got, want)
	}
	if got, want := r.Height(), 0.6; math.Abs(got-want) > 1e-15 {
		t.Errorf("Height = %g, want %g", got, want)
	}
	if got, want := r.Area(), 0.24; math.Abs(got-want) > 1e-15 {
		t.Errorf("Area = %g, want %g", got, want)
	}
	if got, want := r.Margin(), 1.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("Margin = %g, want %g", got, want)
	}
	if got, want := r.Center(), (Point{0.3, 0.5}); math.Abs(got.X-want.X) > 1e-15 || math.Abs(got.Y-want.Y) > 1e-15 {
		t.Errorf("Center = %v, want %v", got, want)
	}
}

func TestRectInvalid(t *testing.T) {
	if rect(0.5, 0, 0.1, 1).Valid() {
		t.Error("rect with MinX > MaxX reported valid")
	}
	if rect(0, 0.5, 1, 0.1).Valid() {
		t.Error("rect with MinY > MaxY reported valid")
	}
	if !PointRect(Point{0.3, 0.3}).Valid() {
		t.Error("degenerate point rect reported invalid")
	}
}

func TestContainsPoint(t *testing.T) {
	r := rect(0.2, 0.2, 0.6, 0.6)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0.4, 0.4}, true},
		{Point{0.2, 0.2}, true}, // boundary inclusive
		{Point{0.6, 0.6}, true},
		{Point{0.2, 0.6}, true},
		{Point{0.1999, 0.4}, false},
		{Point{0.4, 0.6001}, false},
		{Point{0.7, 0.7}, false},
	}
	for _, tc := range cases {
		if got := r.ContainsPoint(tc.p); got != tc.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestIntersects(t *testing.T) {
	a := rect(0, 0, 0.5, 0.5)
	cases := []struct {
		b    Rect
		want bool
	}{
		{rect(0.25, 0.25, 0.75, 0.75), true},
		{rect(0.5, 0.5, 1, 1), true}, // touching corner counts
		{rect(0.5, 0, 1, 0.5), true}, // touching edge counts
		{rect(0.51, 0.51, 1, 1), false},
		{rect(0, 0.51, 0.5, 1), false},
		{a, true},                        // self
		{rect(0.1, 0.1, 0.2, 0.2), true}, // contained
	}
	for _, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects not symmetric for %v, %v", a, tc.b)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := rect(0, 0, 0.5, 0.5)
	got, ok := a.Intersect(rect(0.25, 0.25, 0.75, 0.75))
	if !ok || !got.Equal(rect(0.25, 0.25, 0.5, 0.5)) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(rect(0.6, 0.6, 1, 1)); ok {
		t.Error("disjoint rects reported intersecting")
	}
	// Touching rectangles intersect in a degenerate rect.
	got, ok = a.Intersect(rect(0.5, 0, 1, 1))
	if !ok || got.Area() != 0 {
		t.Errorf("touching Intersect = %v, %v, want degenerate", got, ok)
	}
}

func TestUnionAndMBR(t *testing.T) {
	a, b := rect(0, 0, 0.3, 0.3), rect(0.5, 0.6, 0.9, 0.7)
	u := a.Union(b)
	if !u.Equal(rect(0, 0, 0.9, 0.7)) {
		t.Errorf("Union = %v", u)
	}
	if got := MBR([]Rect{a, b}); !got.Equal(u) {
		t.Errorf("MBR = %v, want %v", got, u)
	}
	if got := MBR([]Rect{a}); !got.Equal(a) {
		t.Errorf("MBR single = %v", got)
	}
}

func TestMBRPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MBR(nil) did not panic")
		}
	}()
	MBR(nil)
}

func TestEnlargement(t *testing.T) {
	a := rect(0, 0, 0.5, 0.5)
	if got := a.Enlargement(rect(0.1, 0.1, 0.2, 0.2)); got != 0 {
		t.Errorf("enlargement for contained rect = %g, want 0", got)
	}
	got := a.Enlargement(rect(0, 0, 1, 0.5))
	if want := 0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("Enlargement = %g, want %g", got, want)
	}
}

func TestExpandConventions(t *testing.T) {
	r := rect(0.4, 0.4, 0.6, 0.6)
	// ExpandTotal grows width by qx, height by qy, center fixed (Fig. 4).
	e := r.ExpandTotal(0.2, 0.1)
	if !e.AlmostEqual(rect(0.3, 0.35, 0.7, 0.65), 1e-12) {
		t.Errorf("ExpandTotal = %v", e)
	}
	if c, want := e.Center(), r.Center(); math.Abs(c.X-want.X)+math.Abs(c.Y-want.Y) > 1e-12 {
		t.Errorf("ExpandTotal moved center to %v", c)
	}
	// ExtendCorner grows only the top-right corner (Fig. 2).
	c := r.ExtendCorner(0.2, 0.1)
	if !c.AlmostEqual(rect(0.4, 0.4, 0.8, 0.7), 1e-12) {
		t.Errorf("ExtendCorner = %v", c)
	}
}

// The geometric facts the whole model rests on: a region query intersects
// R iff its top-right corner lies in ExtendCorner(R), and iff its center
// lies in ExpandTotal(R).
func TestQueryEquivalences(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const qx, qy = 0.13, 0.07
	for i := 0; i < 5000; i++ {
		r := randRect(rng)
		// A random query rectangle of size qx x qy (may poke outside U).
		cx, cy := rng.Float64(), rng.Float64()
		q := RectAround(Point{cx, cy}, qx, qy)

		want := r.Intersects(q)
		corner := Point{q.MaxX, q.MaxY}
		if got := r.ExtendCorner(qx, qy).ContainsPoint(corner); got != want {
			t.Fatalf("corner equivalence failed: r=%v q=%v want %v got %v", r, q, want, got)
		}
		if got := r.ExpandTotal(qx, qy).ContainsPoint(Point{cx, cy}); got != want {
			t.Fatalf("center equivalence failed: r=%v q=%v want %v got %v", r, q, want, got)
		}
	}
}

func TestClamp(t *testing.T) {
	got := rect(-0.5, 0.5, 1.5, 2).Clamp(UnitSquare)
	if !got.Equal(rect(0, 0.5, 1, 1)) {
		t.Errorf("Clamp = %v", got)
	}
	// Entirely outside: degenerate on the boundary.
	got = rect(2, 2, 3, 3).Clamp(UnitSquare)
	if !got.Valid() || got.Area() != 0 {
		t.Errorf("Clamp outside = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	in := []Rect{rect(10, 20, 30, 40), rect(20, 30, 50, 60)}
	out := Normalize(in)
	bb := MBR(out)
	if !bb.AlmostEqual(UnitSquare, 1e-12) {
		t.Errorf("normalized bounding box = %v", bb)
	}
	// Relative positions preserved: first rect starts at origin.
	if out[0].MinX != 0 || out[0].MinY != 0 {
		t.Errorf("first rect = %v", out[0])
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) != nil")
	}
}

func TestNormalizePointsDegenerate(t *testing.T) {
	// All points on a vertical line: x collapses to 0, y spreads.
	pts := []Point{{2, 1}, {2, 3}, {2, 2}}
	out := NormalizePoints(pts)
	for _, p := range out {
		if p.X != 0 {
			t.Errorf("degenerate axis not collapsed: %v", out)
		}
	}
	if out[1].Y != 1 || out[0].Y != 0 {
		t.Errorf("y not normalized: %v", out)
	}
}

func TestTotals(t *testing.T) {
	rs := []Rect{rect(0, 0, 0.5, 0.5), rect(0, 0, 0.25, 1)}
	if got, want := TotalArea(rs), 0.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("TotalArea = %g", got)
	}
	lx, ly := totalExtents(rs)
	if math.Abs(lx-0.75) > 1e-15 || math.Abs(ly-1.5) > 1e-15 {
		t.Errorf("totalExtents = %g, %g", lx, ly)
	}
}

// Property: union contains both operands; intersection is contained in both.
func TestUnionIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if x, ok := a.Intersect(b); ok {
			if !a.ContainsRect(x) || !b.ContainsRect(x) {
				return false
			}
			if !a.Intersects(b) {
				return false
			}
		} else if a.Intersects(b) {
			return false
		}
		// Area is monotone under union.
		return u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatalf("union/intersect property violated at iteration %d", i)
		}
	}
}

// Property (testing/quick): for arbitrary float inputs, RectFromPoints is
// valid and contains both points.
func TestRectFromPointsQuick(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		// Constrain to finite values; NaN ordering is undefined by design.
		for _, v := range []float64{x1, y1, x2, y2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := RectFromPoints(Point{x1, y1}, Point{x2, y2})
		return r.Valid() && r.ContainsPoint(Point{x1, y1}) && r.ContainsPoint(Point{x2, y2})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCentersAndPointRects(t *testing.T) {
	rs := []Rect{rect(0, 0, 0.2, 0.4), rect(0.5, 0.5, 0.7, 0.9)}
	cs := Centers(rs)
	if len(cs) != 2 || cs[0] != (Point{0.1, 0.2}) || cs[1] != (Point{0.6, 0.7}) {
		t.Errorf("Centers = %v", cs)
	}
	prs := PointRects(cs)
	for i, pr := range prs {
		if pr.Area() != 0 || pr.Center() != cs[i] {
			t.Errorf("PointRects[%d] = %v", i, pr)
		}
	}
}

func TestString(t *testing.T) {
	if got := rect(0, 0, 0.5, 1).String(); got != "[0,0.5]x[0,1]" {
		t.Errorf("String = %q", got)
	}
}

// totalExtents returns the per-axis extent sums (Lx, Ly) of rects, the
// quantities Lx and Ly of the paper's Equation 2.
func totalExtents(rects []Rect) (lx, ly float64) {
	for _, r := range rects {
		lx += r.Width()
		ly += r.Height()
	}
	return lx, ly
}
