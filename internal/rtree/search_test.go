package rtree

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"rtreebuf/internal/geom"
)

var sink int

// streamWindow is the reference answer: every item SearchWindowFunc's
// recursive visitor streams for q, in its order. No hits is nil.
func streamWindow(tr *Tree, q geom.Rect) []Item {
	var out []Item
	tr.SearchWindowFunc(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// contractTrees builds seeded trees of n items every way the package
// builds one — Guttman inserts (quadratic and linear), R* inserts and a
// packed load — at fan-outs 4, 10 and 100.
func contractTrees(t *testing.T, n int) map[string]*Tree {
	t.Helper()
	items := testItems(rand.New(rand.NewPCG(3601, 3602)), n)
	trees := make(map[string]*Tree)
	for _, fan := range []int{4, 10, 100} {
		for _, split := range []SplitAlgorithm{SplitQuadratic, SplitLinear, SplitRStar} {
			tr := MustNew(Params{MaxEntries: fan, Split: split})
			tr.InsertAll(items)
			trees[fmt.Sprintf("%v/M=%d", split, fan)] = tr
		}
		tr, err := Pack(Params{MaxEntries: fan}, items, xOrdering)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("packed/M=%d", fan)] = tr
	}
	return trees
}

// contractWindows returns windows of several sizes, windows that hit
// nothing, and windows with NaN bounds (which Intersects never matches
// on the NaN side).
func contractWindows(rng *rand.Rand) []geom.Rect {
	var ws []geom.Rect
	for _, side := range []float64{0, 0.01, 0.05, 0.3} {
		for i := 0; i < 20; i++ {
			c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			ws = append(ws, geom.RectAround(c, side, side))
		}
	}
	nan := math.NaN()
	return append(ws,
		geom.UnitSquare,
		geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
		geom.Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1},
		geom.Rect{MinX: 0, MinY: 0, MaxX: nan, MaxY: 1},
		geom.Rect{MinX: 0, MinY: nan, MaxX: 1, MaxY: nan},
		geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan},
	)
}

// TestSearchMatchesStream: on every kind of tree SearchWindow and
// SearchPoint return exactly what SearchWindowFunc streams, element by
// element and in DFS order, and nil when nothing matches.
func TestSearchMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(3603, 3604))
	windows := contractWindows(rng)
	for name, tr := range contractTrees(t, 3000) {
		t.Run(name, func(t *testing.T) {
			for _, q := range windows {
				want := streamWindow(tr, q)
				if got := tr.SearchWindow(q); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("SearchWindow(%v): %d items, stream %d (order or nil-ness differs)", q, len(got), len(want))
				}
				p := q.Center()
				want = streamWindow(tr, geom.PointRect(p))
				if got := tr.SearchPoint(p); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("SearchPoint(%v): %d items, stream %d (order or nil-ness differs)", p, len(got), len(want))
				}
			}
		})
	}
	empty := MustNew(Params{MaxEntries: 10})
	if got := empty.SearchWindow(geom.UnitSquare); got != nil {
		t.Errorf("empty tree: SearchWindow returned %v, want nil", got)
	}
	if got := empty.SearchPoint(geom.Point{X: 0.5, Y: 0.5}); got != nil {
		t.Errorf("empty tree: SearchPoint returned %v, want nil", got)
	}
}

// TestSearchResultIsCallersCopy: a returned slice shares nothing with
// the recycled scratch — overwriting or appending to it leaves the next
// query's answer alone, and a later query leaves it alone.
func TestSearchResultIsCallersCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3605, 3606))
	tr := MustNew(Params{MaxEntries: 10})
	tr.InsertAll(testItems(rng, 2000))
	w := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}
	want := streamWindow(tr, w)
	if len(want) < 10 {
		t.Fatalf("window too selective (%d hits)", len(want))
	}
	got := tr.SearchWindow(w)
	for i := range got {
		got[i] = Item{ID: -1}
	}
	got = append(got, Item{ID: -2})
	if again := tr.SearchWindow(w); !slices.Equal(again, want) {
		t.Fatal("writing to a returned slice changed the next query's answer")
	}
	first := tr.SearchWindow(w)
	tr.SearchWindow(geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.9, MaxY: 0.9})
	if !slices.Equal(first, want) {
		t.Fatal("a later query changed an earlier query's result")
	}
	sink += len(got)
}

// TestSearchConcurrentQueries: four goroutines query one tree at once
// and each gets its own answer (run under -race in CI).
func TestSearchConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3607, 3608))
	tr := MustNew(Params{MaxEntries: 10})
	tr.InsertAll(testItems(rng, 3000))
	windows := contractWindows(rng)
	want := make([][]Item, len(windows))
	for i, q := range windows {
		want[i] = streamWindow(tr, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range windows {
					at := (i + g*7 + round) % len(windows)
					if got := tr.SearchWindow(windows[at]); !slices.Equal(got, want[at]) {
						t.Errorf("goroutine %d: window %d returned %d items, want %d", g, at, len(got), len(want[at]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// heldWindow runs SearchWindow's body on a search the test holds and
// returns it after putSearch, with the number of results. The tests read
// what putSearch left in the search itself, not what the pool hands out
// next: sync.Pool promises no retention, and a Get on another P does not
// see a value just put back.
func heldWindow(tr *Tree, q geom.Rect) (*treeSearch, int) {
	s := tr.getSearch()
	s.items = tr.searchNode(tr.root, q, s.items[:0])
	n := len(s.items)
	tr.putSearch(s)
	return s, n
}

// heldBestFirst is heldWindow for bestFirst, the body of Nearest (k > 0),
// NearestWithin (k = 0, limitSq the squared radius) and TraceNearest.
func heldBestFirst(tr *Tree, p geom.Point, k int, limitSq float64, trace func(NodeVisit)) (*treeSearch, int) {
	s := tr.getSearch()
	s.trace, s.height = trace, tr.root.height
	s.found, _ = s.f.BestFirst(s.found[:0], p, tr.root, k, limitSq, s.expand)
	n := len(s.found)
	tr.putSearch(s)
	return s, n
}

// TestSearchCapsResultScratch mirrors storage's
// TestPutQueryCapsResultScratch: a full-window query over more than
// maxScratchItems items returns every item and leaves its search holding
// no result buffer beyond the cap, while an ordinary scratch is kept.
func TestSearchCapsResultScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(3609, 3610))
	items := testItems(rng, maxScratchItems+5_000)
	tr, err := Pack(Params{MaxEntries: 100}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.SearchWindow(geom.UnitSquare); len(got) != len(items) || !equalIDs(idsOf(got), idsOf(items)) {
		t.Fatalf("full-window search: %d of %d items", len(got), len(items))
	}
	s, n := heldWindow(tr, geom.UnitSquare)
	if n != len(items) {
		t.Fatalf("full-window search body: %d of %d items", n, len(items))
	}
	if cap(s.items) > maxScratchItems {
		t.Errorf("the recycled search holds a %d-item result buffer, cap %d", cap(s.items), maxScratchItems)
	}
	for _, size := range []int{100, maxScratchItems, maxScratchItems + 1} {
		s = tr.getSearch()
		s.items = make([]Item, 0, size)
		tr.putSearch(s)
		if kept := cap(s.items) == size; kept != (size <= maxScratchItems) {
			t.Errorf("putSearch of a %d-item scratch left cap %d (limit %d)", size, cap(s.items), maxScratchItems)
		}
	}
}

// TestWindowAndNearestShareSearches: window and kNN queries recycle one
// kind of search through the tree's pool. Goroutines that interleave
// them on one tree each get what the query returns alone, and after
// either kind of query the pooled search holds no node and no array
// beyond maxScratchItems.
func TestWindowAndNearestShareSearches(t *testing.T) {
	rng := rand.New(rand.NewPCG(3613, 3614))
	items := testItems(rng, maxScratchItems+5_000)
	tr, err := Pack(Params{MaxEntries: 100}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	windows := contractWindows(rng)
	wantWindow := make([][]Item, len(windows))
	wantNearest := make([][]Neighbor, len(windows))
	for i, q := range windows {
		wantWindow[i] = tr.SearchWindow(q)
		wantNearest[i] = tr.Nearest(q.Center(), 10)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range windows {
					at := (i + g*7 + round) % len(windows)
					if (at+g)%2 == 0 {
						if got := tr.SearchWindow(windows[at]); !slices.Equal(got, wantWindow[at]) {
							t.Errorf("goroutine %d: window %d returned %d items, alone %d", g, at, len(got), len(wantWindow[at]))
							return
						}
					} else if got := tr.Nearest(windows[at].Center(), 10); !slices.Equal(got, wantNearest[at]) {
						t.Errorf("goroutine %d: kNN %d returned %v, alone %v", g, at, got, wantNearest[at])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	center := geom.Point{X: 0.5, Y: 0.5}
	for _, tc := range []struct {
		name string
		run  func() (*treeSearch, int)
	}{
		{"SearchWindow, whole tree", func() (*treeSearch, int) { return heldWindow(tr, geom.UnitSquare) }},
		{"Nearest", func() (*treeSearch, int) { return heldBestFirst(tr, center, 10, math.Inf(1), nil) }},
		{"NearestWithin, whole tree", func() (*treeSearch, int) { return heldBestFirst(tr, center, 0, 4, nil) }},
		{"SearchWindow", func() (*treeSearch, int) { return heldWindow(tr, geom.RectAround(center, 0.01, 0.01)) }},
	} {
		s, n := tc.run()
		if n == 0 {
			t.Fatalf("%s returned nothing: the case does not test what it says", tc.name)
		}
		for _, c := range []int{cap(s.items), cap(s.found), cap(s.f.keys), cap(s.f.nodes), cap(s.f.items), cap(s.f.best.heap), cap(s.f.far.heap)} {
			if c > maxScratchItems {
				t.Errorf("%s: the recycled search keeps an array of %d, cap %d", tc.name, c, maxScratchItems)
			}
		}
		for i, n := range s.f.nodes[:cap(s.f.nodes)] {
			if n != nil {
				t.Fatalf("%s: the recycled search still references node %d of its queue", tc.name, i)
			}
		}
	}
}

// TestTreeQueryAllocations is the allocation gate on the in-memory
// tree's queries, shaped like storage's TestQueryAllocations: on
// a warm tree a window or kNN query allocates its result slice when it
// has results and nothing when it has none, and a query that streams its
// results (SearchWindowFunc, TraceWindow) allocates nothing.
func TestTreeQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	rng := rand.New(rand.NewPCG(3611, 3612))
	items := testItems(rng, 20000)
	tr := MustNew(Params{MaxEntries: 100})
	tr.InsertAll(items)
	tr.SearchWindow(geom.UnitSquare) // sizes the scratch
	tr.AssignPageIDs()
	visit := func(NodeVisit) {}
	nowhere := geom.Point{X: 7, Y: 7}
	p := items[0].Rect.Center()
	w := geom.RectAround(geom.Point{X: 0.4, Y: 0.6}, 0.01, 0.01)
	for _, tc := range []struct {
		name string
		want float64
		run  func() int
	}{
		{"SearchPoint, no match", 0, func() int { return len(tr.SearchPoint(nowhere)) }},
		{"SearchWindow, no match", 0, func() int { return len(tr.SearchWindow(geom.PointRect(nowhere))) }},
		{"SearchPoint", 1, func() int { return len(tr.SearchPoint(p)) }},
		{"SearchWindow", 1, func() int { return len(tr.SearchWindow(w)) }},
		{"Nearest", 1, func() int { return len(tr.Nearest(p, 10)) }},
		{"NearestWithin", 1, func() int { return len(tr.NearestWithin(p, 0.01)) }},
		{"NearestWithin, no match", 0, func() int { return len(tr.NearestWithin(nowhere, 0.01)) }},
		{"TraceNearest", 1, func() int { return len(tr.TraceNearest(p, 10, visit)) }},
	} {
		if n := tc.run(); (n > 0) != (tc.want > 0) {
			t.Fatalf("%s returned %d results: the case does not test what it says", tc.name, n)
		}
		if got := testing.AllocsPerRun(200, func() { sink += tc.run() }); got != tc.want {
			t.Errorf("%s: %v allocations per query, want %v", tc.name, got, tc.want)
		}
	}
	streamed := 0
	item := func(Item) bool { streamed++; return true }
	node := func(NodeVisit) { streamed++ }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"SearchWindowFunc", func() { tr.SearchWindowFunc(w, item) }},
		{"TraceWindow", func() { tr.TraceWindow(w, node) }},
	} {
		streamed = 0
		if tc.run(); streamed == 0 {
			t.Fatalf("%s streamed nothing: the case does not test what it says", tc.name)
		}
		if got := testing.AllocsPerRun(200, tc.run); got != 0 {
			t.Errorf("%s: %v allocations per query, want 0", tc.name, got)
		}
	}
}

// BenchmarkSearchWindow is the window query of the benchmark's
// paper_model phase A: 0.01 x 0.01 windows on a fan-out-100 tree built
// by tuple-at-a-time (Guttman) inserts.
func BenchmarkSearchWindow(b *testing.B) {
	rng := rand.New(rand.NewPCG(815, 816))
	tr := MustNew(Params{MaxEntries: 100})
	tr.InsertAll(testItems(rng, 50000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := geom.Point{X: float64(i%997) / 997, Y: float64(i%991) / 991}
		sink += len(tr.SearchWindow(geom.RectAround(c, 0.01, 0.01)))
	}
}
