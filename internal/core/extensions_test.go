package core

import (
	"math"
	"testing"
)

func TestWarmupCurve(t *testing.T) {
	p := pointPredictor(t)
	const b = 50
	counts := []float64{0, 1, 5, 10, 50, 100, 1000, 100000}
	curve := p.WarmupCurve(b, counts)
	if len(curve) != len(counts) {
		t.Fatalf("curve length %d", len(curve))
	}
	nstar := p.WarmupQueries(b)
	prevD, prevM := -1.0, -1.0
	for i, pt := range curve {
		if pt.Queries != counts[i] {
			t.Fatalf("point %d queries %g", i, pt.Queries)
		}
		if pt.DistinctNodes < prevD || pt.ExpectedMisses < prevM {
			t.Fatalf("curve not monotone at %d", i)
		}
		prevD, prevM = pt.DistinctNodes, pt.ExpectedMisses
		// Before the fill point, every miss is a first touch.
		if pt.Queries <= nstar && math.Abs(pt.ExpectedMisses-pt.DistinctNodes) > 1e-9 {
			t.Errorf("pre-fill misses %g != distinct %g", pt.ExpectedMisses, pt.DistinctNodes)
		}
		if pt.DistinctNodes > float64(p.NodeCount()) {
			t.Errorf("D(N) exceeds node count")
		}
	}
	// Far past warm-up the incremental miss rate approaches EDT.
	last, prev := curve[len(curve)-1], curve[len(curve)-2]
	rate := (last.ExpectedMisses - prev.ExpectedMisses) / (last.Queries - prev.Queries)
	if math.Abs(rate-p.DiskAccesses(b)) > 1e-9 {
		t.Errorf("steady-state rate %g != EDT %g", rate, p.DiskAccesses(b))
	}
}

func TestWarmupCurveHugeBuffer(t *testing.T) {
	p := pointPredictor(t)
	curve := p.WarmupCurve(10000, []float64{10, 1e6})
	for _, pt := range curve {
		if math.Abs(pt.ExpectedMisses-pt.DistinctNodes) > 1e-9 {
			t.Errorf("with an unfillable buffer all misses are first touches")
		}
	}
}

func TestDiskAccessesStatic(t *testing.T) {
	p := pointPredictor(t)
	// Static EDT is within [0, EPT], non-increasing in B, and close to
	// the LRU model (the documented small-buffer optimism means the LRU
	// *model* may dip slightly below it; neither should diverge).
	prev := math.Inf(1)
	for _, b := range []int{1, 5, 17, 50, 100, 272} {
		static := p.DiskAccessesStatic(b)
		lru := p.DiskAccesses(b)
		if static < 0 || static > p.NodesVisited()+1e-9 {
			t.Errorf("B=%d: static %g out of range", b, static)
		}
		if static > prev+1e-12 {
			t.Errorf("B=%d: static increased", b)
		}
		prev = static
		if math.Abs(static-lru) > 0.25*p.NodesVisited() {
			t.Errorf("B=%d: static %g and LRU %g diverge implausibly", b, static, lru)
		}
		if ineff := p.LRUInefficiency(b); math.Abs(ineff-math.Max(0, lru-static)) > 1e-12 {
			t.Errorf("B=%d: inefficiency %g", b, ineff)
		}
	}
	if p.DiskAccessesStatic(273) != 0 {
		t.Error("static cache of the whole tree still misses")
	}
	if p.DiskAccessesStatic(0) != p.NodesVisited() {
		t.Error("static cache of nothing should cost EPT")
	}
	// Static with B pages removes exactly the top-B probabilities.
	if got, want := p.DiskAccessesStatic(1), p.NodesVisited()-1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("static(1) = %g, want %g (root prob 1 removed)", got, want)
	}
}
