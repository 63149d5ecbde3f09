package rtree

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"rtreebuf/internal/geom"
)

func bruteNearest(items []Item, p geom.Point, k int) []Neighbor {
	ns := make([]Neighbor, len(items))
	for i, it := range items {
		ns[i] = Neighbor{Item: it, Dist: math.Sqrt(minDistSq(p, it.Rect))}
	}
	sort.SliceStable(ns, func(a, b int) bool { return ns[a].Dist < ns[b].Dist })
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

func TestMinDistSq(t *testing.T) {
	r := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	cases := []struct {
		p    geom.Point
		want float64
	}{
		{geom.Point{X: 0.5, Y: 0.5}, 0},           // inside
		{geom.Point{X: 0.4, Y: 0.4}, 0},           // corner
		{geom.Point{X: 0.2, Y: 0.5}, 0.04},        // left of
		{geom.Point{X: 0.5, Y: 0.9}, 0.09},        // above
		{geom.Point{X: 0.2, Y: 0.2}, 0.04 + 0.04}, // diagonal
	}
	for _, tc := range cases {
		if got := minDistSq(tc.p, r); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("minDistSq(%v) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// minDistSq uses the builtin max, which the compiler inlines. On inputs
// without a NaN it is bit-identical to the math.Max form it replaced,
// signed zeros and infinities included; with a NaN among them it is NaN
// (math.Max(NaN, +Inf) is +Inf, the builtin's is NaN).
func TestMinDistSqMatchesMathMax(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.5}
	mathForm := func(p geom.Point, r geom.Rect) float64 {
		dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
		dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
		return dx*dx + dy*dy
	}
	check := func(p geom.Point, r geom.Rect) {
		got, want := minDistSq(p, r), mathForm(p, r)
		nanIn := false
		for _, v := range []float64{p.X, p.Y, r.MinX, r.MinY, r.MaxX, r.MaxY, r.MinX - p.X, p.X - r.MaxX, r.MinY - p.Y, p.Y - r.MaxY} {
			nanIn = nanIn || math.IsNaN(v)
		}
		if nanIn && !math.IsNaN(got) || !nanIn && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("minDistSq(%v, %v) = %g (%#x), math form %g (%#x)", p, r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			for _, c := range specials {
				check(geom.Point{X: a, Y: c}, geom.Rect{MinX: b, MinY: a, MaxX: c, MaxY: b})
			}
		}
	}
	rng := rand.New(rand.NewPCG(809, 810))
	draw := func() float64 {
		if rng.IntN(2) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return rng.Float64()*4 - 2
	}
	for i := 0; i < 5000; i++ {
		check(geom.Point{X: draw(), Y: draw()}, geom.Rect{MinX: draw(), MinY: draw(), MaxX: draw(), MaxY: draw()})
	}
}

// referenceNearest is best-first search the plain way: every entry of
// every expanded node is queued, with no bound, and the queue pops the
// least (squared distance, push order). It returns the pages expanded and
// the IDs found, in order.
func referenceNearest(t *Tree, p geom.Point, k int) (pages []int, ids []int64) {
	type queued struct {
		distSq float64
		seq    int
		node   *node
		id     int64
	}
	queue := []queued{{node: t.root}}
	seq := 1
	for len(queue) > 0 && len(ids) < k {
		first := 0
		for i, q := range queue {
			if q.distSq < queue[first].distSq || !(queue[first].distSq < q.distSq) && q.seq < queue[first].seq {
				first = i
			}
		}
		q := queue[first]
		queue = append(queue[:first], queue[first+1:]...)
		if q.node == nil {
			ids = append(ids, q.id)
			continue
		}
		pages = append(pages, q.node.page)
		for _, e := range q.node.entries {
			queue = append(queue, queued{distSq: minDistSq(p, e.rect), seq: seq, node: e.child, id: e.id})
			seq++
		}
	}
	return pages, ids
}

// tieItems is a data set whose distances tie everywhere: a lattice of
// points and rectangles on the lattice, each rectangle stored three times.
func tieItems(rng *rand.Rand) []Item {
	const n = 16
	var items []Item
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			items = append(items, Item{Rect: geom.PointRect(geom.Point{X: float64(i) / n, Y: float64(j) / n})})
		}
	}
	for r := 0; r < 40; r++ {
		x, y := rng.IntN(n-1), rng.IntN(n-1)
		w, h := 1+rng.IntN(2), rng.IntN(2)
		rect := geom.Rect{MinX: float64(x) / n, MinY: float64(y) / n, MaxX: float64(min(x+w, n)) / n, MaxY: float64(min(y+h, n)) / n}
		for c := 0; c < 3; c++ {
			items = append(items, Item{Rect: rect})
		}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	for i := range items {
		items[i].ID = int64(i)
	}
	return items
}

// With distances tying at zero and away from it, Nearest must pop in the
// frontier's total order — distance, then push order — and its k-th-best
// bound must not change what it visits: the pages TraceNearest reads and
// the IDs it returns equal the unbounded reference's.
func TestNearestTieOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(811, 812))
	items := tieItems(rng)
	inserted := MustNew(Params{MaxEntries: 8})
	inserted.InsertAll(items)
	packed, err := Pack(Params{MaxEntries: 8}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *Tree
	}{{"insert", inserted}, {"pack", packed}} {
		name, tr := tc.name, tc.tr
		tr.AssignPageIDs()
		for qi := 0; qi <= 16; qi += 3 {
			for qj := 0; qj <= 16; qj += 4 {
				p := geom.Point{X: float64(qi) / 16, Y: float64(qj) / 16}
				for _, k := range []int{1, 5, 10, 50} {
					var pages []int
					got := tr.TraceNearest(p, k, func(v NodeVisit) { pages = append(pages, v.Page) })
					ids := make([]int64, len(got))
					for i, nb := range got {
						ids[i] = nb.Item.ID
					}
					wantPages, wantIDs := referenceNearest(tr, p, k)
					if !slices.Equal(pages, wantPages) {
						t.Fatalf("%s p=%v k=%d: pages %v, reference %v", name, p, k, pages, wantPages)
					}
					if !slices.Equal(ids, wantIDs) {
						t.Fatalf("%s p=%v k=%d: IDs %v, reference %v", name, p, k, ids, wantIDs)
					}
				}
			}
		}
	}
}

// siblingBounds offers the root's children, each as (squared MAXDIST,
// items under it), to a search for k items around the origin within
// limitSq, and returns the squared bound after each offer. Child i is
// the segment from the origin to (sqrt(maxDistSq), 0): at distance 0,
// so every offer is taken, with the given MAXDIST (exact for the squares
// of binary fractions the cases use).
func siblingBounds(k int, limitSq float64, children []reach) []float64 {
	var f Frontier[int]
	var bounds []float64
	_, _ = f.BestFirst(nil, geom.Point{}, 0, k, limitSq, func(n int) error {
		if n != 0 {
			return nil
		}
		for i, c := range children {
			r := geom.Rect{MaxX: math.Sqrt(c.distSq)}
			d, ok := f.Within(r)
			if !ok {
				panic("a child at distance 0 is beyond the bound")
			}
			f.PushNodeAt(i, d, r, i+1, c.count)
			bounds = append(bounds, f.boundSq)
		}
		return nil
	}) // expand never fails
	return bounds
}

// TestSiblingBoundCountsItems: the sibling bound drops to the smallest
// MAXDIST at which the children offered so far hold k items, each child
// counted with the items its caller states: a child whose count alone
// reaches k sets it, counts below k add up, a count above k counts as k
// (so that counts near the int range do not overflow), a count of 0
// counts nothing, and a search with no k leaves the bound alone.
func TestSiblingBoundCountsItems(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name     string
		k        int
		limitSq  float64
		children []reach
		want     []float64
	}{
		{"one child reaches k", 10, inf, []reach{{4, 10}}, []float64{4}},
		{"a nearer child that reaches k lowers it", 10, inf, []reach{{9, 3}, {4, 10}, {1, 12}}, []float64{inf, 4, 1}},
		{"counts below k add up", 10, inf, []reach{{1, 4}, {9, 3}, {16, 3}, {4, 3}}, []float64{inf, inf, 16, 9}},
		{"a farther child can complete k", 10, inf, []reach{{1, 9}, {16, 1}, {9, 1}}, []float64{inf, 16, 9}},
		{"count above k is capped", 10, inf, []reach{{1, 5}, {16, math.MaxInt}, {4, math.MaxInt}}, []float64{inf, 16, 4}},
		{"count of 0 counts nothing", 2, inf, []reach{{1, 0}, {4, 1}, {9, 1}}, []float64{inf, inf, 9}},
		{"one item each", 3, inf, []reach{{9, 1}, {4, 1}, {1, 1}, {16, 1}, {0.25, 1}}, []float64{inf, inf, 9, 9, 4}},
		{"no k", 0, inf, []reach{{4, 100}, {1, 100}}, []float64{inf, inf}},
		{"no k, with a limit", 0, 25, []reach{{4, 100}, {1, 100}}, []float64{25, 25}},
		{"k below 0", -1, inf, []reach{{4, 100}}, []float64{inf}},
		{"the limit is lower", 1, 10, []reach{{16, 1}, {4, 1}}, []float64{10, 4}},
	} {
		if got := siblingBounds(tc.k, tc.limitSq, tc.children); !slices.Equal(got, tc.want) {
			t.Errorf("%s: bounds %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(801, 802))
	items := testItems(rng, 2000)
	for _, build := range []string{"insert", "pack"} {
		var tr *Tree
		if build == "insert" {
			tr = MustNew(Params{MaxEntries: 10})
			tr.InsertAll(items)
		} else {
			var err error
			tr, err = Pack(Params{MaxEntries: 10}, items, xOrdering)
			if err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 50; trial++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			k := 1 + rng.IntN(20)
			got := tr.Nearest(p, k)
			want := bruteNearest(items, p, k)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d neighbors, want %d", build, len(got), len(want))
			}
			for i := range got {
				// Distances must match exactly in order; IDs may differ only
				// between equidistant items.
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("%s: neighbor %d dist %g, want %g", build, i, got[i].Dist, want[i].Dist)
				}
			}
			// Ascending order.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatalf("%s: results not sorted", build)
				}
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	if got := tr.Nearest(geom.Point{X: 0.5, Y: 0.5}, 3); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
	tr.Insert(Item{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 1})
	if got := tr.Nearest(geom.Point{X: 0.5, Y: 0.5}, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	got := tr.Nearest(geom.Point{X: 0.5, Y: 0.5}, 10)
	if len(got) != 1 || got[0].Item.ID != 1 {
		t.Errorf("k>size returned %v", got)
	}
	// Query inside the rectangle: distance zero.
	got = tr.Nearest(geom.Point{X: 0.15, Y: 0.15}, 1)
	if got[0].Dist != 0 {
		t.Errorf("inside-query dist = %g", got[0].Dist)
	}
}

func TestNearestWithin(t *testing.T) {
	rng := rand.New(rand.NewPCG(803, 804))
	items := testItems(rng, 1000)
	tr := MustNew(Params{MaxEntries: 8})
	tr.InsertAll(items)
	p := geom.Point{X: 0.5, Y: 0.5}
	const radius = 0.1
	got := tr.NearestWithin(p, radius)
	want := 0
	for _, it := range items {
		if minDistSq(p, it.Rect) <= radius*radius {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("NearestWithin returned %d, brute force %d", len(got), want)
	}
	for i, n := range got {
		if n.Dist > radius+1e-12 {
			t.Fatalf("result %d at distance %g > radius", i, n.Dist)
		}
		if i > 0 && n.Dist < got[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	if tr.NearestWithin(p, -1) != nil {
		t.Error("negative radius returned results")
	}
}

func TestTraceNearest(t *testing.T) {
	rng := rand.New(rand.NewPCG(805, 806))
	items := testItems(rng, 1000)
	tr, err := Pack(Params{MaxEntries: 10}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	tr.AssignPageIDs()
	var visits []NodeVisit
	p := geom.Point{X: 0.3, Y: 0.7}
	got := tr.TraceNearest(p, 5, func(v NodeVisit) { visits = append(visits, v) })
	if len(got) != 5 {
		t.Fatalf("got %d neighbors", len(got))
	}
	if len(visits) == 0 || visits[0].Page != 0 {
		t.Fatalf("trace did not start at the root: %+v", visits)
	}
	// Same answers as the untraced search.
	plain := tr.Nearest(p, 5)
	for i := range got {
		if got[i].Dist != plain[i].Dist {
			t.Fatal("traced and plain kNN disagree")
		}
	}
	// A kNN search must touch far fewer pages than the tree holds.
	if len(visits) >= tr.NodeCount()/2 {
		t.Errorf("kNN touched %d of %d pages — pruning broken?", len(visits), tr.NodeCount())
	}
	seen := map[int]bool{}
	for _, v := range visits {
		if seen[v.Page] {
			t.Fatalf("page %d visited twice", v.Page)
		}
		seen[v.Page] = true
	}
}

func TestTraceNearestRequiresPages(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	tr.Insert(Item{Rect: geom.UnitSquare, ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("TraceNearest without AssignPageIDs did not panic")
		}
	}()
	tr.TraceNearest(geom.Point{X: 0.5, Y: 0.5}, 1, func(NodeVisit) {})
}

// TestNearestRecyclesSearch: a kNN search goes back to its tree's pool
// holding no reference to a node, so a pooled search never keeps a node
// alive, and a search that grew its queue past maxScratchItems leaves no
// queue or result buffer beyond the cap there. Concurrent searches on one
// tree each use their own frontier and return what one search alone did.
func TestNearestRecyclesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(813, 814))
	items := testItems(rng, maxScratchItems+5_000)
	tr, err := Pack(Params{MaxEntries: 100}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]geom.Point, 64)
	want := make([][]Neighbor, len(points))
	for i := range points {
		points[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		want[i] = tr.Nearest(points[i], 10)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, p := range points {
					got := tr.Nearest(p, 10)
					if len(got) != len(want[i]) {
						t.Errorf("%v: %d neighbours, want %d", p, len(got), len(want[i]))
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("%v: neighbour %d is %v, alone %v", p, j, got[j], want[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := tr.NearestWithin(geom.Point{X: 0.5, Y: 0.5}, 2); len(got) != len(items) {
		t.Fatalf("NearestWithin over the whole tree: %d of %d items", len(got), len(items))
	}
	s, n := heldBestFirst(tr, geom.Point{X: 0.5, Y: 0.5}, 0, 4, nil)
	if n != len(items) {
		t.Fatalf("NearestWithin body over the whole tree: %d of %d items", n, len(items))
	}
	if cap(s.found) > maxScratchItems || cap(s.f.keys) > maxScratchItems || cap(s.f.nodes) > maxScratchItems || cap(s.f.items) > maxScratchItems {
		t.Errorf("recycled search keeps %d results, %d keys, %d nodes, %d items; cap %d",
			cap(s.found), cap(s.f.keys), cap(s.f.nodes), cap(s.f.items), maxScratchItems)
	}
	tr.AssignPageIDs()
	traced := 0
	s, _ = heldBestFirst(tr, geom.Point{X: 0.3, Y: 0.6}, 10, math.Inf(1), func(NodeVisit) { traced++ })
	if traced == 0 || cap(s.f.nodes) == 0 {
		t.Fatal("the search was not recycled with its queue")
	}
	for i, n := range s.f.nodes[:cap(s.f.nodes)] {
		if n != nil {
			t.Fatalf("recycled search still references node %d of its queue", i)
		}
	}
	if s.trace != nil {
		t.Error("recycled search keeps its trace callback")
	}
}

func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewPCG(807, 808))
	items := testItems(rng, 50000)
	tr, err := Pack(Params{MaxEntries: 100}, items, xOrdering)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Point{X: float64(i%997) / 997, Y: float64(i%991) / 991}
		tr.Nearest(p, 10)
	}
}
