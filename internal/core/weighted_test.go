package core

import (
	"math"
	"testing"

	"rtreebuf/internal/geom"
)

func TestWeightedQueriesValidation(t *testing.T) {
	centers := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}}
	cases := []struct {
		qx, qy  float64
		centers []geom.Point
		weights []float64
		ok      bool
	}{
		{0, 0, centers, []float64{1, 1}, true},
		{0.1, 0.1, centers, []float64{0, 3}, true},
		{-1, 0, centers, []float64{1, 1}, false},
		{0, 0, nil, nil, false},
		{0, 0, centers, []float64{1}, false},             // length mismatch
		{0, 0, centers, []float64{-1, 2}, false},         // negative
		{0, 0, centers, []float64{0, 0}, false},          // zero sum
		{0, 0, centers, []float64{math.NaN(), 1}, false}, // NaN
		{0, 0, centers, []float64{math.Inf(1), 1}, false},
	}
	for i, tc := range cases {
		_, err := NewWeightedQueries(tc.qx, tc.qy, tc.centers, tc.weights)
		if (err == nil) != tc.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, tc.ok)
		}
	}
}

func TestWeightedAccessProb(t *testing.T) {
	centers := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}, {X: 0.25, Y: 0.25}}
	w, err := NewWeightedQueries(0, 0, centers, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rect containing the two hot corners: weight (2+1)/4.
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}
	if got := w.AccessProb(r); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("prob = %g, want 0.75", got)
	}
	// Empty region.
	if got := w.AccessProb(geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}); got != 0 {
		t.Errorf("empty-region prob = %g", got)
	}
	// Everything: 1.
	if got := w.AccessProb(geom.UnitSquare); got != 1 {
		t.Errorf("full prob = %g", got)
	}
}

func TestWeightedReducesToDataDriven(t *testing.T) {
	// Uniform weights must reproduce the unweighted data-driven model.
	centers := make([]geom.Point, 0, 100)
	for i := 0; i < 100; i++ {
		centers = append(centers, geom.Point{X: float64(i%10) / 10, Y: float64(i/10) / 10})
	}
	ones := make([]float64, len(centers))
	for i := range ones {
		ones[i] = 1
	}
	w, err := NewWeightedQueries(0.1, 0.05, centers, ones)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := NewDataDrivenQueries(0.1, 0.05, centers)
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.4, MaxY: 0.3},
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0.85, MinY: 0.85, MaxX: 0.95, MaxY: 0.95},
	}
	for _, r := range rects {
		if a, b := w.AccessProb(r), dd.AccessProb(r); math.Abs(a-b) > 1e-12 {
			t.Errorf("rect %v: weighted %g != data-driven %g", r, a, b)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w, err := ZipfWeights(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("w[%d] = %g, want %g", i, w[i], want[i])
		}
	}
	// s = 0: uniform.
	u, _ := ZipfWeights(5, 0)
	for _, v := range u {
		if v != 1 {
			t.Errorf("s=0 weight %g", v)
		}
	}
	if _, err := ZipfWeights(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ZipfWeights(5, math.NaN()); err == nil {
		t.Error("NaN exponent accepted")
	}
	if _, err := ZipfWeights(5, -1); err == nil {
		t.Error("negative exponent accepted")
	}
}

// TestWeightedAccessProbCapped: nine equal weights normalize to 1/9 each,
// and their float64 sum is 1 + 2^-52. An MBR that covers every center
// must still get a probability of at most 1: the cap absorbs the
// rounding.
func TestWeightedAccessProbCapped(t *testing.T) {
	var centers []geom.Point
	var weights []float64
	for i := 0; i < 9; i++ {
		centers = append(centers, geom.Point{X: 0.1 + 0.1*float64(i), Y: 0.5})
		weights = append(weights, 1)
	}
	w, err := NewWeightedQueries(0, 0, centers, weights)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.AccessProb(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); got > 1 || got < 1-1e-12 {
		t.Errorf("AccessProb of an MBR covering every center = %.17g, want 1", got)
	}
}
