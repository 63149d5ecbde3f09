package storage

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

// TestChooseChildMatchesLoop holds the updater's descent step to the
// portable loop over a page's entry bytes: on amd64 chooseChild is
// rtree.ChooseSubtree over the page, elsewhere it is the loop itself.
// Coordinates come from a small set with both zeros and both
// infinities, so ties, duplicates and NaN enlargements are common.
func TestChooseChildMatchesLoop(t *testing.T) {
	coords := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	coord := func(rng *rand.Rand) float64 { return coords[rng.IntN(len(coords))] }
	rect := func(rng *rand.Rand) geom.Rect {
		x0, x1, y0, y1 := coord(rng), coord(rng), coord(rng), coord(rng)
		return geom.Rect{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1), MaxY: max(y0, y1)}
	}
	rng := rand.New(rand.NewPCG(56, 58))
	for _, n := range []int{0, 1, 2, 100, 103} {
		entries := make([]byte, n*entrySize)
		for round := 0; round < 200; round++ {
			for i := range n {
				putEntry(entries[i*entrySize:], rect(rng), uint64(i))
			}
			q := rect(rng)
			if got, want := chooseChild(entries, q), chooseChildLoop(entries, q); got != want {
				t.Fatalf("n=%d q=%v: chooseChild chose %d, the loop %d", n, q, got, want)
			}
		}
	}
}
