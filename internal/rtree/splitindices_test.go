package rtree

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtreebuf/internal/geom"
)

// referenceSplitIndices is Guttman's textbook PickSeeds/PickNext, kept as
// the oracle for SplitIndices: every PickNext step recomputes both
// groups' enlargements for every remaining entry, and the tie-break
// recomputes both group areas from the MBRs.
func referenceSplitIndices(alg SplitAlgorithm, minFill int, rects []geom.Rect) (left, right []int) {
	var s1, s2 int
	if alg == SplitLinear {
		s1, s2 = linearSeeds(rects)
	} else {
		s1, s2 = referenceQuadraticSeeds(rects)
	}
	left, right = []int{s1}, []int{s2}
	leftMBR, rightMBR := rects[s1], rects[s2]
	var remaining []int
	for i := range rects {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		if len(left)+len(remaining) == minFill {
			return append(left, remaining...), right
		}
		if len(right)+len(remaining) == minFill {
			return left, append(right, remaining...)
		}
		bestIdx, bestDiff := 0, -1.0
		for i, ri := range remaining {
			d1 := leftMBR.Union(rects[ri]).Area() - leftMBR.Area()
			d2 := rightMBR.Union(rects[ri]).Area() - rightMBR.Area()
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		ri := remaining[bestIdx]
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]

		d1 := leftMBR.Union(rects[ri]).Area() - leftMBR.Area()
		d2 := rightMBR.Union(rects[ri]).Area() - rightMBR.Area()
		toLeft := d1 < d2
		if d1 == d2 {
			a1, a2 := leftMBR.Area(), rightMBR.Area()
			if a1 != a2 {
				toLeft = a1 < a2
			} else {
				toLeft = len(left) <= len(right)
			}
		}
		if toLeft {
			left = append(left, ri)
			leftMBR = leftMBR.Union(rects[ri])
		} else {
			right = append(right, ri)
			rightMBR = rightMBR.Union(rects[ri])
		}
	}
	return left, right
}

// referenceQuadraticSeeds is PickSeeds with every area recomputed in the
// inner loop.
func referenceQuadraticSeeds(rects []geom.Rect) (int, int) {
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

// splitInput draws n rectangles that make PickNext's ties and no-growth
// steps common: corners snapped to a coarse grid, repeats of earlier
// rectangles, points and segments, and some unsnapped ones.
func splitInput(rng *rand.Rand, n int) []geom.Rect {
	grid := float64(2 + rng.IntN(7))
	snap := func() float64 { return float64(rng.IntN(int(grid)+1)) / grid }
	rects := make([]geom.Rect, n)
	for i := range rects {
		switch k := rng.IntN(10); {
		case k < 2 && i > 0:
			rects[i] = rects[rng.IntN(i)] // duplicate
		case k < 4:
			x1, x2, y := snap(), snap(), snap() // point or segment: zero area
			rects[i] = geom.Rect{MinX: min(x1, x2), MinY: y, MaxX: max(x1, x2), MaxY: y}
		case k < 9:
			x1, x2, y1, y2 := snap(), snap(), snap(), snap()
			rects[i] = geom.Rect{MinX: min(x1, x2), MinY: min(y1, y2), MaxX: max(x1, x2), MaxY: max(y1, y2)}
		default:
			c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			rects[i] = geom.RectAround(c, rng.Float64()*0.3, rng.Float64()*0.3)
		}
	}
	return rects
}

// TestSplitIndicesMatchesReference pins the cached PickNext columns of
// SplitIndices to the textbook split: both index lists, order included,
// over seeded inputs from 3 to 200 rectangles, so that both the
// stack-backed and the heap-backed columns run.
func TestSplitIndicesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 2026))
	for trial := 0; trial < 10000; trial++ {
		n := 3 + rng.IntN(198)
		minFill := 1 + rng.IntN(n/2)
		rects := splitInput(rng, n)
		for _, alg := range []SplitAlgorithm{SplitQuadratic, SplitLinear} {
			gotL, gotR := SplitIndices(alg, minFill, rects)
			wantL, wantR := referenceSplitIndices(alg, minFill, rects)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) {
				t.Fatalf("trial %d (%v, n=%d, minFill=%d): got %v | %v, want %v | %v",
					trial, alg, n, minFill, gotL, gotR, wantL, wantR)
			}
		}
	}
}

// BenchmarkSplitIndices splits one overflowing node of 101 rectangles,
// the fan-out-100 node BenchmarkInsert splits.
func BenchmarkSplitIndices(b *testing.B) {
	items := testItems(rand.New(rand.NewPCG(815, 816)), 101)
	rects := itemRects(items)
	minFill := MustNew(DefaultParams(100)).Params().MinEntries
	for _, alg := range []SplitAlgorithm{SplitQuadratic, SplitLinear} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SplitIndices(alg, minFill, rects)
			}
		})
	}
}
