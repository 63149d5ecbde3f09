package rtree

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
)

// invalidRects are the rectangles every entry point must refuse: a NaN
// in each coordinate, and an inverted extent on each axis.
func invalidRects() map[string]geom.Rect {
	nan := math.NaN()
	return map[string]geom.Rect{
		"nan-minx":   {MinX: nan, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		"nan-miny":   {MinX: 0.1, MinY: nan, MaxX: 0.2, MaxY: 0.2},
		"nan-maxx":   {MinX: 0.1, MinY: 0.1, MaxX: nan, MaxY: 0.2},
		"nan-maxy":   {MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: nan},
		"inverted-x": {MinX: 0.3, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		"inverted-y": {MinX: 0.1, MinY: 0.3, MaxX: 0.2, MaxY: 0.2},
	}
}

// squares returns n random 0.01 x 0.01 rectangles in the unit square.
func squares(rng *rand.Rand, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		x, y := rng.Float64()*0.99, rng.Float64()*0.99
		out[i] = Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}, ID: int64(i)}
	}
	return out
}

// checkEqualsBruteForce holds tr to a scan of items: the full window and
// a grid of smaller windows return exactly the brute-force IDs.
func checkEqualsBruteForce(t *testing.T, tr *Tree, items []Item) {
	t.Helper()
	if err := ValidateTreeStrict(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
	}
	windows := []geom.Rect{geom.UnitSquare}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x, y := float64(i)/4, float64(j)/4
			windows = append(windows, geom.Rect{MinX: x, MinY: y, MaxX: x + 0.3, MaxY: y + 0.3})
		}
	}
	for _, w := range windows {
		if got, want := idsOf(tr.SearchWindow(w)), bruteSearch(items, w); !equalIDs(got, want) {
			t.Fatalf("window %v: %d items, brute force %d", w, len(got), len(want))
		}
	}
}

// TestInsertRejectsInvalidRect: Insert and InsertAll refuse an invalid
// rectangle before touching the tree, so a tree built around the
// refusals answers every window like brute force. An accepted NaN spread
// into the covering rectangles above it, and every window then missed
// that subtree's items.
func TestInsertRejectsInvalidRect(t *testing.T) {
	for _, split := range []SplitAlgorithm{SplitQuadratic, SplitLinear, SplitRStar} {
		for name, bad := range invalidRects() {
			t.Run(split.String()+"/"+name, func(t *testing.T) {
				items := squares(rand.New(rand.NewPCG(48, 1)), 200)
				tr := MustNew(Params{MaxEntries: 8, Split: split})
				for i, it := range items {
					if err := tr.Insert(it); err != nil {
						t.Fatal(err)
					}
					if i == 100 {
						err := tr.Insert(Item{Rect: bad, ID: 999})
						if err == nil || !strings.Contains(err.Error(), "invalid rect") {
							t.Fatalf("Insert of %v: err = %v, want an invalid-rect refusal", bad, err)
						}
					}
				}
				checkEqualsBruteForce(t, tr, items)

				batch := append(squares(rand.New(rand.NewPCG(48, 2)), 10), Item{Rect: bad, ID: 998})
				err := tr.InsertAll(batch)
				if err == nil || !strings.Contains(err.Error(), "item 10 ") {
					t.Fatalf("InsertAll with an invalid item at 10: err = %v, want a refusal naming item 10", err)
				}
				checkEqualsBruteForce(t, tr, items) // the refused batch left nothing behind
			})
		}
	}
}

// TestPackRejectsInvalidRect: Pack refuses an invalid item and names its
// index, whatever the ordering would have made of it.
func TestPackRejectsInvalidRect(t *testing.T) {
	inOrder := func(rects []geom.Rect, _ int) []int {
		perm := make([]int, len(rects))
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	for name, bad := range invalidRects() {
		items := squares(rand.New(rand.NewPCG(48, 3)), 200)
		items = append(items[:150], append([]Item{{Rect: bad, ID: 999}}, items[150:]...)...)
		_, err := Pack(Params{MaxEntries: 8}, items, inOrder)
		if err == nil || !strings.Contains(err.Error(), "item 150 ") {
			t.Errorf("%s: Pack err = %v, want a refusal naming item 150", name, err)
		}
	}
}
