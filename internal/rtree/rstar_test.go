package rtree

import (
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

func rstarTree() *Tree {
	return MustNew(Params{MaxEntries: 10, Split: SplitRStar})
}

func TestRStarInsertMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(700, 701))
	for _, cap := range []int{4, 10, 32} {
		tr := MustNew(Params{MaxEntries: cap, Split: SplitRStar})
		items := testItems(rng, 1000)
		tr.InsertAll(items)
		if tr.Len() != len(items) {
			t.Fatalf("cap %d: Len = %d", cap, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if err := tr.CheckMinFill(); err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if err := ValidateTreeStrict(tr); err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		for i := 0; i < 80; i++ {
			q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()},
				rng.Float64()*0.2, rng.Float64()*0.2)
			got := idsOf(tr.SearchWindow(q))
			want := bruteSearch(items, q)
			if !equalIDs(got, want) {
				t.Fatalf("cap %d: query %v mismatch (%d vs %d)", cap, q, len(got), len(want))
			}
		}
	}
}

func TestRStarDelete(t *testing.T) {
	rng := rand.New(rand.NewPCG(702, 703))
	tr := rstarTree()
	items := testItems(rng, 600)
	tr.InsertAll(items)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i, it := range items[:500] {
		if !tr.Delete(it) {
			t.Fatalf("delete %d failed", i)
		}
		if i%101 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !equalIDs(idsOf(tr.Items()), idsOf(items[500:])) {
		t.Fatal("survivors mismatch")
	}
}

// The point of R*: better tree quality than Guttman insertion. On
// clustered data, the R* tree's total MBR area and overlap should be
// clearly below the quadratic-split tree's.
func TestRStarQualityBeatsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewPCG(704, 705))
	var items []Item
	id := int64(0)
	for c := 0; c < 25; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < 120; i++ {
			p := geom.Point{
				X: cx + (rng.Float64()-0.5)*0.08,
				Y: cy + (rng.Float64()-0.5)*0.08,
			}
			items = append(items, Item{Rect: geom.PointRect(p).Clamp(geom.UnitSquare), ID: id})
			id++
		}
	}
	quad := MustNew(Params{MaxEntries: 20})
	quad.InsertAll(items)
	rs := MustNew(Params{MaxEntries: 20, Split: SplitRStar})
	rs.InsertAll(items)

	qa, ra := quad.ComputeStats().TotalArea, rs.ComputeStats().TotalArea
	if ra >= qa {
		t.Errorf("R* total area %.4f not below quadratic %.4f", ra, qa)
	}
}

func TestRStarForcedReinsertHappens(t *testing.T) {
	// With capacity 4 and 50 inserts, overflows are guaranteed; the tree
	// must stay valid throughout (reinsertion exercises insertEntryCtx
	// recursion at non-leaf heights once the tree is deep enough).
	rng := rand.New(rand.NewPCG(706, 707))
	tr := MustNew(Params{MaxEntries: 4, Split: SplitRStar})
	for i := 0; i < 400; i++ {
		tr.Insert(testItems(rng, 1)[0])
		if i%37 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("tree too shallow (%d) to have exercised upper-level overflow", tr.Height())
	}
}

func TestSplitRStarRespectsMinFill(t *testing.T) {
	rng := rand.New(rand.NewPCG(708, 709))
	tr := MustNew(Params{MaxEntries: 8, MinEntries: 4, Split: SplitRStar})
	n := &node{height: 0}
	for _, it := range testItems(rng, 9) {
		n.entries = append(n.entries, entry{rect: it.Rect, id: it.ID})
	}
	left, right := n, tr.split(n)
	if len(left.entries) < 4 || len(right.entries) < 4 {
		t.Errorf("split sizes %d/%d violate min fill 4", len(left.entries), len(right.entries))
	}
	if len(left.entries)+len(right.entries) != 9 {
		t.Errorf("split lost entries: %d + %d", len(left.entries), len(right.entries))
	}
}

func TestOverlapEnlargement(t *testing.T) {
	entries := []entry{
		{rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 0.4, MaxY: 0.4}},
		{rect: geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 1, MaxY: 1}},
	}
	// Growing entry 0 to include a rect near entry 1 creates overlap.
	r := geom.Rect{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8}
	if got := overlapEnlargement(entries, 0, r); got <= 0 {
		t.Errorf("overlap enlargement = %g, want > 0", got)
	}
	// Growing entry 0 within its own corner creates none.
	r2 := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	if got := overlapEnlargement(entries, 0, r2); got != 0 {
		t.Errorf("overlap enlargement = %g, want 0", got)
	}
}

func TestRStarDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(710, 711))
	items := testItems(rng, 500)
	a := rstarTree()
	a.InsertAll(items)
	b := rstarTree()
	b.InsertAll(items)
	la, lb := a.Levels(), b.Levels()
	if len(la) != len(lb) {
		t.Fatal("heights differ")
	}
	for i := range la {
		if len(la[i]) != len(lb[i]) {
			t.Fatal("level sizes differ")
		}
		for j := range la[i] {
			if !la[i][j].Equal(lb[i][j]) {
				t.Fatal("MBRs differ")
			}
		}
	}
}
