package nd

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func randItems(rng *rand.Rand, dims, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		c := randPoint(rng, dims)
		min := make(Point, dims)
		max := make(Point, dims)
		for d := 0; d < dims; d++ {
			h := rng.Float64() * 0.02
			min[d], max[d] = c[d]-h, c[d]+h
		}
		out[i] = Item{Rect: Rect{Min: min, Max: max}, ID: int64(i)}
	}
	return out
}

func bruteWindow(items []Item, q Rect) []int64 {
	var ids []int64
	for _, it := range items {
		if it.Rect.Intersects(q) {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func idsOfItems(items []Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equalID(a, b []int64) bool {
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

func TestNDParamsValidation(t *testing.T) {
	bad := []Params{
		{Dims: 1, MaxEntries: 10},
		{Dims: 3, MaxEntries: 1},
	}
	for _, p := range bad {
		if _, err := Pack(p, nil, HilbertOrdering(3)); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	tr, err := Pack(Params{Dims: 3, MaxEntries: 10}, nil, HilbertOrdering(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Params(); got.Dims != 3 || got.MaxEntries != 10 {
		t.Errorf("Params() = %+v", got)
	}
}

// The name predates the cut to a packed read-only tree (the test floor
// tracks it): the items now arrive through Pack, the search check is
// the same.
func TestNDInsertSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, dims := range []int{2, 3, 4, 5} {
		items := randItems(rng, dims, 600)
		tr, err := Pack(Params{Dims: dims, MaxEntries: 8}, items, HilbertOrdering(dims))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 600 {
			t.Fatalf("dims %d: Len = %d", dims, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("dims %d: %v", dims, err)
		}
		for i := 0; i < 50; i++ {
			c := randPoint(rng, dims)
			min := make(Point, dims)
			max := make(Point, dims)
			for d := 0; d < dims; d++ {
				h := rng.Float64() * 0.15
				min[d], max[d] = c[d]-h, c[d]+h
			}
			q := Rect{Min: min, Max: max}
			got := idsOfItems(tr.SearchWindow(q))
			if !equalID(got, bruteWindow(items, q)) {
				t.Fatalf("dims %d: search mismatch", dims)
			}
		}
	}
}

func TestNDPack(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, dims := range []int{2, 3, 5} {
		items := randItems(rng, dims, 1000)
		for name, ord := range map[string]Ordering{
			"hilbert":  HilbertOrdering(dims),
			"nearestx": NearestXOrdering(),
		} {
			tr, err := Pack(Params{Dims: dims, MaxEntries: 10}, items, ord)
			if err != nil {
				t.Fatalf("dims %d %s: %v", dims, name, err)
			}
			if tr.Len() != 1000 {
				t.Fatalf("dims %d %s: Len = %d", dims, name, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("dims %d %s: %v", dims, name, err)
			}
			if got := tr.NodeCount(); got != 100+10+1 {
				t.Fatalf("dims %d %s: nodes = %d", dims, name, got)
			}
			if !equalID(idsOfItems(tr.SearchWindow(UnitCube(dims))), idsOfItems(items)) {
				t.Fatalf("dims %d %s: packed tree lost items", dims, name)
			}
		}
	}
}

func TestNDPackEmptyAndErrors(t *testing.T) {
	tr, err := Pack(Params{Dims: 3, MaxEntries: 8}, nil, HilbertOrdering(3))
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty pack: %v", err)
	}
	if _, err := Pack(Params{Dims: 3, MaxEntries: 8}, nil, nil); err == nil {
		t.Error("nil ordering accepted")
	}
	if _, err := Pack(Params{Dims: 1, MaxEntries: 8}, nil, HilbertOrdering(2)); err == nil {
		t.Error("bad dims accepted")
	}
}

// Hilbert packing beats NX packing on extent sums in every dimension —
// increasingly so as d grows, the structural reason HS remains the
// loading algorithm of choice beyond 2-D.
func TestNDHilbertBeatsNearestX(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for _, dims := range []int{2, 3, 4} {
		items := PointItems(UniformPoints(dims, 4000, uint64(dims)*100))
		_ = rng
		margin := map[string]float64{}
		for name, ord := range map[string]Ordering{
			"hs": HilbertOrdering(dims),
			"nx": NearestXOrdering(),
		} {
			tr, err := Pack(Params{Dims: dims, MaxEntries: 20}, items, ord)
			if err != nil {
				t.Fatal(err)
			}
			var m float64
			for _, lvl := range tr.Levels() {
				for _, r := range lvl {
					m += r.Margin()
				}
			}
			margin[name] = m
		}
		if margin["hs"] >= margin["nx"] {
			t.Errorf("dims %d: HS margin %.1f not below NX %.1f", dims, margin["hs"], margin["nx"])
		}
	}
}

func TestNDLevels(t *testing.T) {
	items := PointItems(UniformPoints(3, 500, 7))
	tr, err := Pack(Params{Dims: 3, MaxEntries: 10}, items, HilbertOrdering(3))
	if err != nil {
		t.Fatal(err)
	}
	levels := tr.Levels()
	if len(levels) != tr.Height() {
		t.Fatalf("levels %d, height %d", len(levels), tr.Height())
	}
	if len(levels[0]) != 1 {
		t.Errorf("root level has %d nodes", len(levels[0]))
	}
	total := 0
	for _, lvl := range levels {
		total += len(lvl)
	}
	if total != tr.NodeCount() {
		t.Errorf("levels sum %d != NodeCount %d", total, tr.NodeCount())
	}
}

func TestNDGenerators(t *testing.T) {
	pts := UniformPoints(4, 300, 1)
	if len(pts) != 300 || len(pts[0]) != 4 {
		t.Fatalf("UniformPoints shape")
	}
	for _, p := range pts {
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatal("point outside unit cube")
			}
		}
	}
	cl := ClusteredPoints(3, 500, 5, 0.05, 2)
	if len(cl) != 500 {
		t.Fatal("ClusteredPoints count")
	}
	cubes := CubeItems(3, 200, 0.1, 3)
	for _, it := range cubes {
		if !UnitCube(3).ContainsPoint(it.Rect.Min) || !UnitCube(3).ContainsPoint(it.Rect.Max) {
			t.Fatal("cube escapes unit cube")
		}
		side := it.Rect.Extent(0)
		for d := 1; d < 3; d++ {
			if diff := it.Rect.Extent(d) - side; diff > 1e-12 || diff < -1e-12 {
				t.Fatal("not a cube")
			}
		}
	}
}
