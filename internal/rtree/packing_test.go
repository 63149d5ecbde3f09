package rtree

import (
	"math/rand/v2"
	"sort"
	"testing"

	"rtreebuf/internal/geom"
)

// xOrdering sorts rectangles by center x — a minimal valid Ordering
// (equivalent to NX) for exercising Pack without importing internal/pack.
var xOrdering = Ordering(func(rects []geom.Rect, _ int) []int {
	perm := make([]int, len(rects))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return rects[perm[a]].Center().X < rects[perm[b]].Center().X
	})
	return perm
})

func TestPackBasic(t *testing.T) {
	rng := rand.New(rand.NewPCG(90, 91))
	items := testItems(rng, 1000)
	tr, err := Pack(Params{MaxEntries: 10}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 1000/10 = 100 leaves, 10 level-1 nodes, 1 root.
	if got := tr.NodesPerLevel(); len(got) != 3 || got[0] != 1 || got[1] != 10 || got[2] != 100 {
		t.Errorf("NodesPerLevel = %v", got)
	}
	if !equalIDs(idsOf(tr.Items()), idsOf(items)) {
		t.Error("packed tree lost items")
	}
	// Packed search agrees with brute force.
	for i := 0; i < 50; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.2, 0.2)
		if got, want := idsOf(tr.SearchWindow(q)), bruteSearch(items, q); !equalIDs(got, want) {
			t.Fatalf("packed search mismatch for %v", q)
		}
	}
}

func TestPackFillsNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(92, 93))
	// 1001 items at cap 10: the trailing leaf holds a single entry —
	// legal for packed trees (and why CheckInvariants skips min fill).
	items := testItems(rng, 1001)
	tr, err := Pack(Params{MaxEntries: 10}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	per := tr.NodesPerLevel()
	if per[len(per)-1] != 101 {
		t.Errorf("leaves = %d, want 101", per[len(per)-1])
	}
	if err := tr.CheckMinFill(); err == nil {
		t.Log("note: trailing nodes happen to satisfy min fill for this size")
	}
	st := tr.ComputeStats()
	if st.AvgFill < 0.9 {
		t.Errorf("packed fill = %.2f, want nearly 1", st.AvgFill)
	}
}

func TestPackSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(94, 95))
	for _, n := range []int{0, 1, 9, 10, 11, 99, 100, 101, 2500} {
		items := testItems(rng, n)
		tr, err := Pack(Params{MaxEntries: 10}, items, xOrdering)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 && !equalIDs(idsOf(tr.Items()), idsOf(items)) {
			t.Fatalf("n=%d: item set mismatch", n)
		}
	}
}

func TestPackedTreeSupportsUpdates(t *testing.T) {
	rng := rand.New(rand.NewPCG(96, 97))
	items := testItems(rng, 500)
	tr, err := Pack(Params{MaxEntries: 8}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	// Inserts and deletes on a packed tree keep it valid.
	extra := testItems(rng, 100)
	for i := range extra {
		extra[i].ID += 10000
		tr.Insert(extra[i])
	}
	for _, it := range items[:100] {
		if !tr.Delete(it) {
			t.Fatal("delete of packed item failed")
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d, want 500", tr.Len())
	}
}

func TestPackRejectsBadOrderings(t *testing.T) {
	items := testItems(rand.New(rand.NewPCG(1, 1)), 10)
	bad := []struct {
		name string
		ord  Ordering
	}{
		{"nil", nil},
		{"short", Ordering(func(rects []geom.Rect, _ int) []int { return []int{0} })},
		{"duplicate", Ordering(func(rects []geom.Rect, _ int) []int {
			p := make([]int, len(rects))
			return p // all zeros
		})},
		{"out of range", Ordering(func(rects []geom.Rect, _ int) []int {
			p := make([]int, len(rects))
			for i := range p {
				p[i] = i
			}
			p[0] = len(rects)
			return p
		})},
	}
	for _, tc := range bad {
		if _, err := Pack(Params{MaxEntries: 4}, items, tc.ord); err == nil {
			t.Errorf("%s ordering accepted", tc.name)
		}
	}
}

func TestPackInvalidParams(t *testing.T) {
	if _, err := Pack(Params{MaxEntries: 1}, nil, xOrdering); err == nil {
		t.Error("Pack accepted MaxEntries 1")
	}
}

func TestAssignPageIDsLevelOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	tr, err := Pack(Params{MaxEntries: 7}, testItems(rng, 700), xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	total := tr.AssignPageIDs()
	if total != tr.NodeCount() {
		t.Fatalf("AssignPageIDs = %d, NodeCount = %d", total, tr.NodeCount())
	}
	// PageLevels must be non-decreasing (level order) and match counts.
	levels := tr.PageLevels()
	counts := tr.NodesPerLevel()
	want := 0
	idx := 0
	for lvl, c := range counts {
		for i := 0; i < c; i++ {
			if levels[idx] != lvl {
				t.Fatalf("page %d at level %d, want %d", idx, levels[idx], lvl)
			}
			idx++
		}
		want += c
	}
	if idx != total {
		t.Fatalf("covered %d of %d pages", idx, total)
	}
}

func TestPageLevelsRequiresAssignment(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	tr.Insert(Item{Rect: geom.UnitSquare, ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("PageLevels without AssignPageIDs did not panic")
		}
	}()
	tr.PageLevels()
}
