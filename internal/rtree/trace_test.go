package rtree

import (
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

// collectTrace returns the visited pages of a traced query.
func collectTrace(tr *Tree, q geom.Rect) []NodeVisit {
	var out []NodeVisit
	tr.TraceWindow(q, func(v NodeVisit) { out = append(out, v) })
	return out
}

// intersectingPages computes, by brute force over Levels, the set of pages
// whose MBR intersects q — what the model counts.
func intersectingPages(tr *Tree, q geom.Rect) map[int]bool {
	tr.AssignPageIDs()
	pages := map[int]bool{}
	page := 0
	for _, lvl := range tr.Levels() {
		for _, mbr := range lvl {
			if mbr.Intersects(q) {
				pages[page] = true
			}
			page++
		}
	}
	return pages
}

func TestTraceMatchesMBRIntersections(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 112))
	tr, err := Pack(Params{MaxEntries: 9}, testItems(rng, 900), xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	tr.AssignPageIDs()
	for i := 0; i < 100; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()},
			rng.Float64()*0.3, rng.Float64()*0.3)
		want := intersectingPages(tr, q)
		got := collectTrace(tr, q)
		if len(got) != len(want) {
			t.Fatalf("trace visited %d pages, want %d", len(got), len(want))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if seen[v.Page] {
				t.Fatalf("page %d visited twice", v.Page)
			}
			seen[v.Page] = true
			if !want[v.Page] {
				t.Fatalf("page %d visited but MBR does not intersect", v.Page)
			}
		}
	}
}

func TestTraceOrders(t *testing.T) {
	rng := rand.New(rand.NewPCG(113, 114))
	tr, err := Pack(Params{MaxEntries: 5}, testItems(rng, 500), xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	tr.AssignPageIDs()
	q := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}

	// DFS: every node is visited after its parent; level may zigzag.
	dfs := collectTrace(tr, q)
	if len(dfs) == 0 || dfs[0].Level != 0 {
		t.Fatalf("DFS trace does not start at the root: %+v", dfs[:1])
	}
	for i := 1; i < len(dfs); i++ {
		if dfs[i].Level > dfs[i-1].Level+1 {
			t.Fatalf("DFS trace skipped a level at %d: %d after %d", i, dfs[i].Level, dfs[i-1].Level)
		}
	}
}

// A query that misses the root's MBR visits nothing: the model assigns
// the root an access probability equal to its MBR's reach.
func TestTraceSkipsMissedRoot(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	tr.Insert(Item{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 1})
	tr.AssignPageIDs()
	q := geom.Rect{MinX: 0.8, MinY: 0.8, MaxX: 0.9, MaxY: 0.9}
	if got := collectTrace(tr, q); len(got) != 0 {
		t.Errorf("trace of a query missing the root visited %d nodes", len(got))
	}
}

func TestTraceRequiresPageIDs(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	tr.Insert(Item{Rect: geom.UnitSquare, ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("TraceWindow without AssignPageIDs did not panic")
		}
	}()
	tr.TraceWindow(geom.UnitSquare, func(NodeVisit) {})
}
