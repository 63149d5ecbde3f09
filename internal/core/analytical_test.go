package core

import (
	"fmt"
	"math"
	"testing"

	"rtreebuf/internal/datagen"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

func TestAnalyticalParamsValidation(t *testing.T) {
	bad := []AnalyticalParams{
		{N: 0, Fanout: 10},
		{N: 100, Fanout: 1},
		{N: 100, Fanout: 10, Density: -1},
	}
	for _, p := range bad {
		if _, err := AnalyticalLevels(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if _, err := analyticalEPT(AnalyticalParams{N: 100, Fanout: 10}, -0.1, 0); err == nil {
		t.Error("negative query accepted")
	}
}

func TestAnalyticalLevelsShape(t *testing.T) {
	levels, err := AnalyticalLevels(AnalyticalParams{N: 10000, Fanout: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 10000 points, fanout 10: levels of 1000, 100, 10, 1 nodes.
	if len(levels) != 4 {
		t.Fatalf("levels = %d", len(levels))
	}
	wantNodes := []float64{1000, 100, 10, 1}
	for i, lvl := range levels {
		if lvl.Nodes != wantNodes[i] {
			t.Errorf("level %d nodes = %g", lvl.Level, lvl.Nodes)
		}
		if lvl.Side <= 0 || lvl.Side > 1 {
			t.Errorf("level %d side = %g", lvl.Level, lvl.Side)
		}
		if i > 0 && lvl.Side <= levels[i-1].Side {
			t.Errorf("node side must grow toward the root")
		}
	}
	// The root covers (nearly) everything.
	if levels[3].Side < 0.5 {
		t.Errorf("root side = %g", levels[3].Side)
	}
}

func TestAnalyticalLevelsTinyData(t *testing.T) {
	levels, err := AnalyticalLevels(AnalyticalParams{N: 5, Fanout: 10, Density: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || levels[0].Nodes != 1 {
		t.Fatalf("levels = %+v", levels)
	}
}

func TestAnalyticalEPTMonotonicity(t *testing.T) {
	p := AnalyticalParams{N: 50000, Fanout: 50}
	prev := 0.0
	for _, q := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5} {
		ept, err := analyticalEPT(p, q, q)
		if err != nil {
			t.Fatal(err)
		}
		if ept <= prev {
			t.Fatalf("EPT not increasing in query size at q=%g", q)
		}
		prev = ept
		ap, err := NewAnalyticalPredictor(p, q, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := ap.NodesVisited(); math.Abs(got-ept) > 1e-9*ept {
			t.Errorf("q=%g: predictor's NodesVisited %g, reference EPT %g", q, got, ept)
		}
	}
	// EPT grows with N at fixed query size.
	small, _ := analyticalEPT(AnalyticalParams{N: 10000, Fanout: 50}, 0.1, 0.1)
	large, _ := analyticalEPT(AnalyticalParams{N: 100000, Fanout: 50}, 0.1, 0.1)
	if large <= small {
		t.Errorf("EPT(100k)=%g <= EPT(10k)=%g", large, small)
	}
}

// The analytical model against the hybrid model on its home turf:
// uniformly distributed points, packed tree. TS-style approximations are
// coarse; require agreement within 40% for EPT and the same ordering
// across buffer sizes for EDT.
func TestAnalyticalVsHybridUniform(t *testing.T) {
	const n, fanout = 40000, 25
	points := datagen.SyntheticPoints(n, 123)
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: fanout}, datagen.PointItems(points))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.05, 0.1} {
		qm, err := NewUniformQueries(q, q)
		if err != nil {
			t.Fatal(err)
		}
		hybrid := NewPredictor(tree.Levels(), qm)
		ap, err := NewAnalyticalPredictor(AnalyticalParams{N: n, Fanout: fanout}, q, q)
		if err != nil {
			t.Fatal(err)
		}
		he, ae := hybrid.NodesVisited(), ap.NodesVisited()
		if rel := math.Abs(he-ae) / he; rel > 0.4 {
			t.Errorf("q=%g: hybrid EPT %.3f vs analytical %.3f (%.0f%%)", q, he, ae, 100*rel)
		}
		// Node counts agree within a few percent (packing is deterministic).
		if rel := math.Abs(float64(hybrid.NodeCount()-ap.NodeCount())) / float64(hybrid.NodeCount()); rel > 0.05 {
			t.Errorf("q=%g: node counts %d vs %d", q, hybrid.NodeCount(), ap.NodeCount())
		}
		// EDT: same direction of improvement, loose magnitude agreement.
		prevH, prevA := math.Inf(1), math.Inf(1)
		for _, b := range []int{50, 200, 800} {
			hd, ad := hybrid.DiskAccesses(b), ap.DiskAccesses(b)
			if hd > prevH+1e-9 || ad > prevA+1e-9 {
				t.Errorf("q=%g B=%d: EDT not monotone", q, b)
			}
			prevH, prevA = hd, ad
			if hd > 0.05 && math.Abs(hd-ad)/hd > 0.6 {
				t.Errorf("q=%g B=%d: hybrid EDT %.3f vs analytical %.3f", q, b, hd, ad)
			}
		}
	}
}

func TestAnalyticalPredictorProbabilities(t *testing.T) {
	ap, err := NewAnalyticalPredictor(AnalyticalParams{N: 10000, Fanout: 10}, 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ap.probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob %g out of range", p)
		}
	}
	// Flattened probabilities preserve EPT.
	var sum float64
	for _, p := range ap.probs {
		sum += p
	}
	if math.Abs(sum-ap.NodesVisited()) > 1e-6 {
		t.Errorf("prob sum %g != EPT %g", sum, ap.NodesVisited())
	}
	// Whole tree buffered: no steady-state accesses.
	if got := ap.DiskAccesses(ap.NodeCount() + 1); got != 0 {
		t.Errorf("full-buffer EDT = %g", got)
	}
}

func TestAnalyticalDensityForRectData(t *testing.T) {
	// Rect data with non-zero density yields larger leaves than points.
	pt, _ := AnalyticalLevels(AnalyticalParams{N: 10000, Fanout: 25})
	rc, _ := AnalyticalLevels(AnalyticalParams{N: 10000, Fanout: 25, Density: 0.3})
	if rc[0].Side <= pt[0].Side {
		t.Errorf("denser data should give larger leaf MBRs: %g vs %g", rc[0].Side, pt[0].Side)
	}
}

// analyticalEPT predicts the expected number of node accesses for a
// uniform qx x qy query from data properties alone (the TS-style
// counterpart of Equation 2), kept as a reference for the predictor: its
// NodesVisited must agree.
func analyticalEPT(p AnalyticalParams, qx, qy float64) (float64, error) {
	levels, err := AnalyticalLevels(p)
	if err != nil {
		return 0, err
	}
	if !(qx >= 0 && qy >= 0) || math.IsInf(qx+qy, 1) {
		return 0, fmt.Errorf("core: query size %gx%g is not finite and non-negative", qx, qy)
	}
	var ept float64
	for _, lvl := range levels {
		prob := math.Min(1, lvl.Side+qx) * math.Min(1, lvl.Side+qy)
		ept += lvl.Nodes * prob
	}
	return ept, nil
}
