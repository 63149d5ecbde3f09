package rtree

import (
	"math/rand/v2"
	"sort"
	"testing"

	"rtreebuf/internal/geom"
)

// testItems generates n random small rectangles in the unit square.
func testItems(rng *rand.Rand, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		w, h := rng.Float64()*0.02, rng.Float64()*0.02
		out[i] = Item{Rect: geom.RectAround(c, w, h).Clamp(geom.UnitSquare), ID: int64(i)}
	}
	return out
}

// bruteSearch returns the IDs of items intersecting q.
func bruteSearch(items []Item, q geom.Rect) []int64 {
	var ids []int64
	for _, it := range items {
		if it.Rect.Intersects(q) {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func idsOf(items []Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{MaxEntries: 10}, true},
		{Params{MaxEntries: 2}, true},
		{Params{MaxEntries: 1}, false},
		{Params{MaxEntries: 0}, false},
		{Params{MaxEntries: 10, MinEntries: 5}, true},
		{Params{MaxEntries: 10, MinEntries: 6}, false}, // > max/2
		{Params{MaxEntries: 10, MinEntries: -1}, false},
		{Params{MaxEntries: 10, Split: SplitLinear}, true},
		{Params{MaxEntries: 10, Split: SplitAlgorithm(9)}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("New(%+v) error = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

func TestDefaultMinEntries(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 10})
	if got := tr.Params().MinEntries; got != 4 {
		t.Errorf("default MinEntries = %d, want 4 (40%%)", got)
	}
	tr = MustNew(Params{MaxEntries: 2})
	if got := tr.Params().MinEntries; got != 1 {
		t.Errorf("MinEntries for cap 2 = %d, want 1", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	if tr.Len() != 0 || tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Errorf("empty tree: len=%d height=%d nodes=%d", tr.Len(), tr.Height(), tr.NodeCount())
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree has bounds")
	}
	if got := tr.SearchWindow(geom.UnitSquare); len(got) != 0 {
		t.Errorf("empty tree search returned %d items", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invalid: %v", err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	items := []Item{
		{Rect: geom.Rect{MinX: 0.0, MinY: 0.0, MaxX: 0.1, MaxY: 0.1}, ID: 1},
		{Rect: geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3}, ID: 2},
		{Rect: geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.25, MaxY: 0.25}, ID: 3},
		{Rect: geom.Rect{MinX: 0.8, MinY: 0.8, MaxX: 0.9, MaxY: 0.9}, ID: 4},
	}
	tr.InsertAll(items)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := idsOf(tr.SearchWindow(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.15, MaxY: 0.15}))
	if !equalIDs(got, []int64{1, 3}) {
		t.Errorf("window search = %v", got)
	}
	got = idsOf(tr.SearchPoint(geom.Point{X: 0.85, Y: 0.85}))
	if !equalIDs(got, []int64{4}) {
		t.Errorf("point search = %v", got)
	}
	if got := tr.SearchPoint(geom.Point{X: 0.5, Y: 0.5}); len(got) != 0 {
		t.Errorf("empty-region search returned %v", got)
	}
}

func TestInsertMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	for _, cap := range []int{3, 4, 8, 25} {
		for _, split := range []SplitAlgorithm{SplitQuadratic, SplitLinear} {
			tr := MustNew(Params{MaxEntries: cap, Split: split})
			items := testItems(rng, 800)
			tr.InsertAll(items)
			if tr.Len() != len(items) {
				t.Fatalf("cap %d: Len = %d", cap, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("cap %d split %v: %v", cap, split, err)
			}
			if err := tr.CheckMinFill(); err != nil {
				t.Fatalf("cap %d split %v: %v", cap, split, err)
			}
			if err := ValidateTreeStrict(tr); err != nil {
				t.Fatalf("cap %d split %v: %v", cap, split, err)
			}
			for i := 0; i < 100; i++ {
				q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()},
					rng.Float64()*0.2, rng.Float64()*0.2)
				got := idsOf(tr.SearchWindow(q))
				want := bruteSearch(items, q)
				if !equalIDs(got, want) {
					t.Fatalf("cap %d split %v: query %v: got %d ids, want %d", cap, split, q, len(got), len(want))
				}
			}
		}
	}
}

func TestInsertDuplicateRects(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	r := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.5, MaxY: 0.5}
	for i := 0; i < 50; i++ {
		tr.Insert(Item{Rect: r, ID: int64(i)})
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.SearchPoint(geom.Point{X: 0.45, Y: 0.45}); len(got) != 50 {
		t.Errorf("found %d of 50 duplicates", len(got))
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 2, MinEntries: 1})
	rng := rand.New(rand.NewPCG(4, 4))
	prev := tr.Height()
	for i := 0; i < 100; i++ {
		tr.Insert(testItems(rng, 1)[0])
		h := tr.Height()
		if h < prev {
			t.Fatalf("height shrank during inserts: %d -> %d", prev, h)
		}
		prev = h
	}
	if prev < 4 {
		t.Errorf("100 items at cap 2 produced height %d, expected >= 4", prev)
	}
}

func TestBounds(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	tr.Insert(Item{Rect: geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.4, MaxY: 0.5}, ID: 1})
	tr.Insert(Item{Rect: geom.Rect{MinX: 0.6, MinY: 0.1, MaxX: 0.9, MaxY: 0.2}, ID: 2})
	b, ok := tr.Bounds()
	if !ok || !b.Equal(geom.Rect{MinX: 0.2, MinY: 0.1, MaxX: 0.9, MaxY: 0.5}) {
		t.Errorf("Bounds = %v, %v", b, ok)
	}
}

func TestSearchWindowFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	tr := MustNew(Params{MaxEntries: 8})
	items := testItems(rng, 500)
	tr.InsertAll(items)
	q := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}

	// Full streaming visit matches SearchWindow.
	var streamed []Item
	if done := tr.SearchWindowFunc(q, func(it Item) bool {
		streamed = append(streamed, it)
		return true
	}); !done {
		t.Fatal("full visit reported early stop")
	}
	if !equalIDs(idsOf(streamed), idsOf(tr.SearchWindow(q))) {
		t.Fatal("streamed results differ from SearchWindow")
	}

	// Early termination stops after exactly N visits.
	want := len(streamed)
	if want < 3 {
		t.Fatalf("test query too selective (%d hits)", want)
	}
	count := 0
	if done := tr.SearchWindowFunc(q, func(Item) bool {
		count++
		return count < 3
	}); done {
		t.Error("early stop reported completion")
	}
	if count != 3 {
		t.Errorf("visited %d items after stop at 3", count)
	}
}

func TestItemsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	tr := MustNew(Params{MaxEntries: 6})
	items := testItems(rng, 300)
	tr.InsertAll(items)
	got := tr.Items()
	if !equalIDs(idsOf(got), idsOf(items)) {
		t.Error("Items() does not round-trip the inserted set")
	}
}

func TestLevelsAndNodesPerLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	tr := MustNew(Params{MaxEntries: 5})
	tr.InsertAll(testItems(rng, 400))
	levels := tr.Levels()
	counts := tr.NodesPerLevel()
	if len(levels) != tr.Height() || len(counts) != tr.Height() {
		t.Fatalf("levels %d, counts %d, height %d", len(levels), len(counts), tr.Height())
	}
	if counts[0] != 1 || len(levels[0]) != 1 {
		t.Errorf("root level has %d nodes", counts[0])
	}
	total := 0
	for i, c := range counts {
		if len(levels[i]) != c {
			t.Errorf("level %d: %d MBRs but count %d", i, len(levels[i]), c)
		}
		if i > 0 && c < counts[i-1] {
			t.Errorf("level %d has fewer nodes (%d) than its parent level (%d)", i, c, counts[i-1])
		}
		total += c
	}
	if total != tr.NodeCount() {
		t.Errorf("level counts sum to %d, NodeCount = %d", total, tr.NodeCount())
	}
	// Root MBR equals bounds; every level-i MBR is inside the root MBR.
	b, _ := tr.Bounds()
	if !levels[0][0].Equal(b) {
		t.Error("root level MBR != Bounds()")
	}
	for i, lvl := range levels {
		for _, r := range lvl {
			if !b.ContainsRect(r) {
				t.Fatalf("level %d MBR %v escapes root %v", i, r, b)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	tr := MustNew(Params{MaxEntries: 10})
	tr.InsertAll(testItems(rng, 600))
	st := tr.ComputeStats()
	if st.Items != 600 || st.Nodes != tr.NodeCount() || st.Levels != tr.Height() {
		t.Errorf("stats mismatch: %+v", st)
	}
	if st.TotalArea <= 0 || st.TotalXExtent <= 0 || st.TotalYExtent <= 0 {
		t.Errorf("degenerate geometry sums: %+v", st)
	}
	if st.AvgFill <= 0.3 || st.AvgFill > 1 {
		t.Errorf("implausible fill %g", st.AvgFill)
	}
	if st.LeafArea > st.TotalArea {
		t.Errorf("leaf area %g > total %g", st.LeafArea, st.TotalArea)
	}
}

func TestSplitAlgorithmString(t *testing.T) {
	if SplitQuadratic.String() != "quadratic" || SplitLinear.String() != "linear" {
		t.Error("split names wrong")
	}
	if SplitAlgorithm(7).String() == "" {
		t.Error("unknown split has empty name")
	}
}

// Property test: after any interleaving of inserts, the tree satisfies all
// invariants and returns exactly the live set.
func TestRandomInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(5150, 2112))
	for trial := 0; trial < 10; trial++ {
		cap := 3 + rng.IntN(20)
		tr := MustNew(Params{MaxEntries: cap})
		n := 100 + rng.IntN(900)
		items := testItems(rng, n)
		for i, it := range items {
			tr.Insert(it)
			if i%97 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("trial %d after %d inserts: %v", trial, i+1, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalIDs(idsOf(tr.Items()), idsOf(items)) {
			t.Fatalf("trial %d: item set mismatch", trial)
		}
	}
}

// BenchmarkInsert is tuple-at-a-time (Guttman) insertion at fan-out 100,
// the build of the benchmark's paper_model phase A: each round of 50,000
// inserts grows a fresh tree, so ns/op averages over every tree size up
// to it.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewPCG(813, 814))
	items := testItems(rng, 50000)
	var tr *Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(items) == 0 {
			tr = MustNew(Params{MaxEntries: 100})
		}
		tr.Insert(items[i%len(items)])
	}
}
