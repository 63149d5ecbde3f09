package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The kernels below use the builtin min and max, which the compiler
// inlines; math.Min and math.Max are assembly calls on amd64. On inputs
// without a NaN the two are bit-identical, signed zeros and infinities
// included, and these tests compare every coordinate by its bits against
// the math.Min/math.Max form. With a NaN among the inputs the builtins
// return NaN, where math.Min(NaN, -Inf) is -Inf, math.Max(NaN, +Inf) is
// +Inf and math's NaN has its own payload; no stored rectangle holds a
// NaN (datagen rejects them on read), so for that corner the tests pin
// the builtins' rule: the coordinate is NaN.

var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.5}

func mathRectFromPoints(a, b Point) Rect {
	return Rect{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Max(a.X, b.X), math.Max(a.Y, b.Y)}
}

func mathUnion(r, s Rect) Rect {
	return Rect{math.Min(r.MinX, s.MinX), math.Min(r.MinY, s.MinY), math.Max(r.MaxX, s.MaxX), math.Max(r.MaxY, s.MaxY)}
}

func mathUnionPoint(r Rect, p Point) Rect {
	return Rect{math.Min(r.MinX, p.X), math.Min(r.MinY, p.Y), math.Max(r.MaxX, p.X), math.Max(r.MaxY, p.Y)}
}

func mathIntersect(r, s Rect) (Rect, bool) {
	out := Rect{math.Max(r.MinX, s.MinX), math.Max(r.MinY, s.MinY), math.Min(r.MaxX, s.MaxX), math.Min(r.MaxY, s.MaxY)}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

func hasNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// sameFloat reports whether got is want bit for bit or, when an input to
// it was NaN, NaN.
func sameFloat(got, want float64, nanIn bool) bool {
	if nanIn {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// sameCoords compares got with want coordinate by coordinate; nanIn[i]
// says whether an operand of coordinate i (MinX, MinY, MaxX, MaxY) was NaN.
func sameCoords(got, want Rect, nanIn [4]bool) bool {
	g := [4]float64{got.MinX, got.MinY, got.MaxX, got.MaxY}
	w := [4]float64{want.MinX, want.MinY, want.MaxX, want.MaxY}
	for i := range g {
		if !sameFloat(g[i], w[i], nanIn[i]) {
			return false
		}
	}
	return true
}

// minMaxPairs returns every pair of special values in both argument orders
// on every coordinate, then random pairs that mix specials with ordinary
// values.
func minMaxPairs() [][2]Rect {
	var out [][2]Rect
	for _, a := range specials {
		for _, b := range specials {
			out = append(out, [2]Rect{{a, b, b, a}, {b, a, a, b}})
		}
	}
	rng := rand.New(rand.NewPCG(31, 37))
	draw := func() float64 {
		if rng.IntN(2) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return rng.Float64()*4 - 2
	}
	for i := 0; i < 5000; i++ {
		out = append(out, [2]Rect{{draw(), draw(), draw(), draw()}, {draw(), draw(), draw(), draw()}})
	}
	return out
}

func TestBuiltinMinMaxMatchMath(t *testing.T) {
	for _, pair := range minMaxPairs() {
		r, s := pair[0], pair[1]
		perCoord := [4]bool{hasNaN(r.MinX, s.MinX), hasNaN(r.MinY, s.MinY), hasNaN(r.MaxX, s.MaxX), hasNaN(r.MaxY, s.MaxY)}
		anyNaN := hasNaN(r.MinX, r.MinY, r.MaxX, r.MaxY, s.MinX, s.MinY, s.MaxX, s.MaxY)

		if got, want := r.Union(s), mathUnion(r, s); !sameCoords(got, want, perCoord) {
			t.Fatalf("%v.Union(%v) = %v, math form %v", r, s, got, want)
		}
		p := Point{s.MinX, s.MaxY}
		if got, want := r.UnionPoint(p), mathUnionPoint(r, p); !sameCoords(got, want,
			[4]bool{hasNaN(r.MinX, p.X), hasNaN(r.MinY, p.Y), hasNaN(r.MaxX, p.X), hasNaN(r.MaxY, p.Y)}) {
			t.Fatalf("%v.UnionPoint(%v) = %v, math form %v", r, p, got, want)
		}
		a, b := Point{r.MinX, r.MaxY}, Point{s.MaxX, s.MinY}
		if got, want := RectFromPoints(a, b), mathRectFromPoints(a, b); !sameCoords(got, want,
			[4]bool{hasNaN(a.X, b.X), hasNaN(a.Y, b.Y), hasNaN(a.X, b.X), hasNaN(a.Y, b.Y)}) {
			t.Fatalf("RectFromPoints(%v, %v) = %v, math form %v", a, b, got, want)
		}
		// A NaN coordinate makes the intersection invalid, so with a NaN
		// among the inputs Intersect reports none.
		got, ok := r.Intersect(s)
		want, wantOK := mathIntersect(r, s)
		if anyNaN {
			want, wantOK = Rect{}, false
		}
		if ok != wantOK || !sameCoords(got, want, [4]bool{}) {
			t.Fatalf("%v.Intersect(%v) = %v %v, want %v %v", r, s, got, ok, want, wantOK)
		}
		if got, want := r.Enlargement(s), mathUnion(r, s).Area()-r.Area(); !sameFloat(got, want, anyNaN) {
			t.Fatalf("%v.Enlargement(%v) = %g, math form %g", r, s, got, want)
		}
	}
}
