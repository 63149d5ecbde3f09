package rtree

import (
	"math"
	"math/rand/v2"
	"sort"
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
