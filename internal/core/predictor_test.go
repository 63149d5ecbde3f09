package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

// syntheticLevels builds a plausible 3-level geometry: a root covering the
// square, mid nodes as a 4x4 tiling, leaves as a 16x16 tiling.
func syntheticLevels() [][]geom.Rect {
	tile := func(n int) []geom.Rect {
		out := make([]geom.Rect, 0, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				out = append(out, rect(
					float64(x)/float64(n), float64(y)/float64(n),
					float64(x+1)/float64(n), float64(y+1)/float64(n)))
			}
		}
		return out
	}
	return [][]geom.Rect{
		{geom.UnitSquare},
		tile(4),
		tile(16),
	}
}

func pointPredictor(t *testing.T) *Predictor {
	t.Helper()
	qm, err := NewUniformQueries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewPredictor(syntheticLevels(), qm)
}

func TestPredictorCounts(t *testing.T) {
	p := pointPredictor(t)
	if p.NodeCount() != 1+16+256 {
		t.Errorf("NodeCount = %d", p.NodeCount())
	}
	if p.LevelCount() != 3 {
		t.Errorf("LevelCount = %d", p.LevelCount())
	}
	got := p.NodesPerLevel()
	if got[0] != 1 || got[1] != 16 || got[2] != 256 {
		t.Errorf("NodesPerLevel = %v", got)
	}
}

func TestPredictorNodesVisited(t *testing.T) {
	p := pointPredictor(t)
	// Exact tiling: every level sums to area 1, so EPT = 3 — a point query
	// touches exactly one node per level.
	if got := p.NodesVisited(); math.Abs(got-3) > 1e-12 {
		t.Errorf("EPT = %g, want 3", got)
	}
}

func TestPredictorDiskAccessesMonotone(t *testing.T) {
	p := pointPredictor(t)
	prev := math.Inf(1)
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 273} {
		e := p.DiskAccesses(b)
		if e > prev+1e-12 {
			t.Fatalf("EDT increased at B=%d", b)
		}
		if e < 0 || e > p.NodesVisited() {
			t.Fatalf("EDT(%d)=%g out of range", b, e)
		}
		prev = e
	}
	if got := p.DiskAccesses(273); got != 0 {
		t.Errorf("EDT with whole tree buffered = %g", got)
	}
}

func TestPredictorHitRatio(t *testing.T) {
	p := pointPredictor(t)
	if hr := p.HitRatio(273); hr != 1 {
		t.Errorf("full-buffer hit ratio = %g", hr)
	}
	hr := p.HitRatio(10)
	if hr <= 0 || hr >= 1 {
		t.Errorf("partial hit ratio = %g", hr)
	}
}

// TestHitRatioZeroWhenNoNodeReachable: a tree whose one node has an
// access probability of 1e-13 has an EPT that is rounding noise, and
// HitRatio is 0 there, as documented ("0 when EPT is 0"), at every buffer
// size. A guard that tests EPT for exact zero divides instead and reports
// a hit ratio of 1 once the buffer holds the node.
func TestHitRatioZeroWhenNoNodeReachable(t *testing.T) {
	p := NewPredictorFromProbs([][]float64{{1e-13}})
	for b := 0; b <= 2; b++ {
		if hr := p.HitRatio(b); hr != 0 {
			t.Errorf("HitRatio(%d) = %g, want 0", b, hr)
		}
	}
}

func TestPinnedPagesAndMaxPinnable(t *testing.T) {
	p := pointPredictor(t)
	if got := p.PinnedPages(0); got != 0 {
		t.Errorf("PinnedPages(0) = %d", got)
	}
	if got := p.PinnedPages(2); got != 17 {
		t.Errorf("PinnedPages(2) = %d", got)
	}
	if got := p.PinnedPages(3); got != 273 {
		t.Errorf("PinnedPages(3) = %d", got)
	}
	if got := p.MaxPinnableLevels(16); got != 1 {
		t.Errorf("MaxPinnableLevels(16) = %d", got)
	}
	if got := p.MaxPinnableLevels(17); got != 2 {
		t.Errorf("MaxPinnableLevels(17) = %d", got)
	}
	if got := p.MaxPinnableLevels(273); got != 3 {
		t.Errorf("MaxPinnableLevels(273) = %d", got)
	}
}

func TestDiskAccessesPinned(t *testing.T) {
	p := pointPredictor(t)
	// Pinning zero levels is plain LRU.
	base := p.DiskAccesses(100)
	got, err := p.DiskAccessesPinned(100, 0)
	if err != nil || math.Abs(got-base) > 1e-12 {
		t.Errorf("pin0 = %g vs %g (%v)", got, base, err)
	}
	// Pinning never hurts (paper Sec. 5.5): check across buffers/depths.
	for _, b := range []int{20, 50, 100, 200} {
		prevBase := p.DiskAccesses(b)
		for pin := 1; pin <= p.MaxPinnableLevels(b); pin++ {
			v, err := p.DiskAccessesPinned(b, pin)
			if err != nil {
				t.Fatalf("B=%d pin=%d: %v", b, pin, err)
			}
			if v > prevBase+1e-9 {
				t.Errorf("B=%d pin=%d: pinning hurt (%g > %g)", b, pin, v, prevBase)
			}
		}
	}
	// Infeasible pinning rejected.
	if _, err := p.DiskAccessesPinned(10, 2); err == nil {
		t.Error("pinning 17 pages into 10 accepted")
	}
	if _, err := p.DiskAccessesPinned(100, -1); err == nil {
		t.Error("negative pin accepted")
	}
	if _, err := p.DiskAccessesPinned(100, 4); err == nil {
		t.Error("pin beyond levels accepted")
	}
}

func TestPinningImprovement(t *testing.T) {
	p := pointPredictor(t)
	imp, err := p.PinningImprovement(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if imp < 0 || imp > 1 {
		t.Errorf("improvement = %g", imp)
	}
	// Saturated buffer: zero accesses either way, improvement reported 0.
	imp, err = p.PinningImprovement(273, 2)
	if err != nil || imp != 0 {
		t.Errorf("saturated improvement = %g, %v", imp, err)
	}
}

func TestBufferForTarget(t *testing.T) {
	p := pointPredictor(t)
	b, ok := p.BufferForTarget(1.0, 1024)
	if !ok {
		t.Fatal("target unreachable")
	}
	if p.DiskAccesses(b) > 1.0 {
		t.Errorf("returned buffer %d misses the target", b)
	}
	if b > 1 && p.DiskAccesses(b-1) <= 1.0 {
		t.Errorf("buffer %d not minimal", b)
	}
	// Unreachable target.
	if _, ok := p.BufferForTarget(-1, 10); ok {
		t.Error("negative target reachable")
	}
	// Trivial target: everything qualifies, so the minimum (1) returns.
	b, ok = p.BufferForTarget(1e9, 1024)
	if !ok || b != 1 {
		t.Errorf("trivial target buffer = %d, %v", b, ok)
	}
}

func TestPredictorWithDataDriven(t *testing.T) {
	rng := rand.New(rand.NewPCG(605, 606))
	centers := make([]geom.Point, 500)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * 0.3, Y: rng.Float64() * 0.3} // clustered corner
	}
	dd, err := NewDataDrivenQueries(0, 0, centers)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor(syntheticLevels(), dd)
	// Every query lands in the populated corner: per level exactly one
	// node contains the query point, so EPT = 3 again...
	if got := p.NodesVisited(); math.Abs(got-3) > 1e-9 {
		t.Errorf("data-driven EPT = %g", got)
	}
	// ...but only nodes overlapping the corner are ever accessed, so a
	// small buffer suffices: reachable nodes ≈ 1 root + 4 mid + ~25 leaves.
	if got := p.DiskAccesses(64); got != 0 {
		t.Errorf("data-driven EDT(64) = %g, want 0 (all hot nodes fit)", got)
	}
	if got := p.DiskAccesses(3); got <= 0 {
		t.Errorf("data-driven EDT(3) = %g, want > 0", got)
	}
}

func TestAccessProbsShape(t *testing.T) {
	qm, _ := NewUniformQueries(0, 0)
	levels := syntheticLevels()
	probs := AccessProbs(levels, qm)
	if len(probs) != len(levels) {
		t.Fatal("level count mismatch")
	}
	for i := range probs {
		if len(probs[i]) != len(levels[i]) {
			t.Fatalf("level %d count mismatch", i)
		}
		for j, p := range probs[i] {
			if p < 0 || p > 1 {
				t.Fatalf("prob[%d][%d] = %g", i, j, p)
			}
		}
	}
}
