package pack

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/hilbert"
	"rtreebuf/internal/rtree"
)

func randItems(rng *rand.Rand, n int) []rtree.Item {
	out := make([]rtree.Item, n)
	for i := range out {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		out[i] = rtree.Item{
			Rect: geom.RectAround(c, rng.Float64()*0.02, rng.Float64()*0.02).Clamp(geom.UnitSquare),
			ID:   int64(i),
		}
	}
	return out
}

func randRects(rng *rand.Rand, n int) []geom.Rect {
	items := randItems(rng, n)
	out := make([]geom.Rect, n)
	for i, it := range items {
		out[i] = it.Rect
	}
	return out
}

func TestLoadAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 202))
	items := randItems(rng, 1500)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			tr, err := Load(alg, rtree.Params{MaxEntries: 16}, items)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(items) {
				t.Errorf("Len = %d", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Every item findable by point query at its center.
			for i := 0; i < 200; i += 7 {
				hits := tr.SearchPoint(items[i].Rect.Center())
				found := false
				for _, h := range hits {
					if h.ID == items[i].ID {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("item %d not found at its center", i)
				}
			}
		})
	}
}

func TestLoadUnknownAlgorithm(t *testing.T) {
	if _, err := Load(Algorithm("bogus"), rtree.Params{MaxEntries: 4}, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPaperAlgorithms(t *testing.T) {
	got := PaperAlgorithms()
	want := []Algorithm{TATQuadratic, NearestX, HilbertSort}
	if len(got) != len(want) {
		t.Fatalf("PaperAlgorithms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PaperAlgorithms = %v", got)
		}
	}
}

func TestNearestXOrderingSortsByCenterX(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 204))
	rects := randRects(rng, 500)
	perm := NearestXOrdering()(rects, 10)
	for i := 1; i < len(perm); i++ {
		if rects[perm[i-1]].Center().X > rects[perm[i]].Center().X {
			t.Fatalf("NX ordering not sorted at %d", i)
		}
	}
}

func TestHilbertOrderingSortsByHilbertKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(205, 206))
	rects := randRects(rng, 500)
	perm := HilbertOrdering(hilbert.DefaultOrder)(rects, 10)
	prev := uint64(0)
	for i, idx := range perm {
		c := rects[idx].Center()
		key := hilbert.EncodePoint(hilbert.DefaultOrder, c.X, c.Y)
		if key < prev {
			t.Fatalf("HS ordering not sorted at %d", i)
		}
		prev = key
	}
}

func TestSTROrderingStructure(t *testing.T) {
	// A perfect 16x16 grid of points, capacity 16: STR should produce 16
	// leaves, each a 4x4 tile (slab of 4 columns x runs of 16).
	var rects []geom.Rect
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			p := geom.Point{X: (float64(x) + 0.5) / 16, Y: (float64(y) + 0.5) / 16}
			rects = append(rects, geom.PointRect(p))
		}
	}
	perm := STROrdering()(rects, 16)
	if len(perm) != 256 {
		t.Fatalf("perm length %d", len(perm))
	}
	// Every run of 16 should span exactly a 0.25 x 0.25 tile.
	for g := 0; g < 16; g++ {
		var tile []geom.Rect
		for _, idx := range perm[g*16 : (g+1)*16] {
			tile = append(tile, rects[idx])
		}
		mbr := geom.MBR(tile)
		if mbr.Width() > 0.20 || mbr.Height() > 0.20 {
			t.Fatalf("group %d spans %v — not a compact STR tile", g, mbr)
		}
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	rng := rand.New(rand.NewPCG(207, 208))
	rects := randRects(rng, 333)
	orderings := map[string]rtree.Ordering{
		"nx":  NearestXOrdering(),
		"hs":  HilbertOrdering(hilbert.DefaultOrder),
		"str": STROrdering(),
	}
	for name, ord := range orderings {
		perm := ord(rects, 10)
		if len(perm) != len(rects) {
			t.Fatalf("%s: length %d", name, len(perm))
		}
		seen := make([]bool, len(rects))
		for _, idx := range perm {
			if idx < 0 || idx >= len(rects) || seen[idx] {
				t.Fatalf("%s: not a permutation", name)
			}
			seen[idx] = true
		}
	}
}

// Tree-quality comparison, the structural fact behind Equation 2 of the
// paper: region-query cost grows with the total extent sums Lx + Ly, where
// Hilbert/STR tiles (compact squares) beat Nearest-X slivers (full-height
// columns) decisively on uniform data. Total *area* is nearly identical
// for point data regardless of ordering, which is exactly why the paper's
// point-query rankings differ from its region-query rankings.
func TestPackingQualityOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(209, 210))
	var items []rtree.Item
	for i := 0; i < 4000; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		items = append(items, rtree.Item{Rect: geom.PointRect(p), ID: int64(i)})
	}
	perimeter := map[Algorithm]float64{}
	for _, alg := range []Algorithm{NearestX, HilbertSort, STR} {
		tr, err := Load(alg, rtree.Params{MaxEntries: 20}, items)
		if err != nil {
			t.Fatal(err)
		}
		st := tr.ComputeStats()
		perimeter[alg] = st.TotalXExtent + st.TotalYExtent
	}
	if perimeter[HilbertSort] >= perimeter[NearestX]/2 {
		t.Errorf("HS extent sum %.2f not well below NX %.2f on uniform data",
			perimeter[HilbertSort], perimeter[NearestX])
	}
	if perimeter[STR] >= perimeter[NearestX]/2 {
		t.Errorf("STR extent sum %.2f not well below NX %.2f",
			perimeter[STR], perimeter[NearestX])
	}
}

func TestSTRVariousSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(211, 212))
	for _, n := range []int{1, 5, 16, 17, 100, 257, 1000} {
		items := randItems(rng, n)
		tr, err := Load(STR, rtree.Params{MaxEntries: 16}, items)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestTATSplitVariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(213, 214))
	items := randItems(rng, 400)
	quad, err := Load(TATQuadratic, rtree.Params{MaxEntries: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Load(TATLinear, rtree.Params{MaxEntries: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	if quad.Params().Split != rtree.SplitQuadratic || lin.Params().Split != rtree.SplitLinear {
		t.Error("split parameter not propagated")
	}
	if err := quad.CheckMinFill(); err != nil {
		t.Error(err)
	}
	if err := lin.CheckMinFill(); err != nil {
		t.Error(err)
	}
}

func TestCeilSqrt(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {16, 4}, {17, 5}, {10000, 100},
	}
	for _, tc := range cases {
		if got := ceilSqrt(tc.in); got != tc.want {
			t.Errorf("ceilSqrt(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Determinism: identical inputs yield identical trees (orderings use
// stable sorts and no randomness).
func TestLoadDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(215, 216))
	items := randItems(rng, 700)
	for _, alg := range Algorithms() {
		a, err := Load(alg, rtree.Params{MaxEntries: 12}, items)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Load(alg, rtree.Params{MaxEntries: 12}, items)
		if err != nil {
			t.Fatal(err)
		}
		la, lb := a.Levels(), b.Levels()
		if len(la) != len(lb) {
			t.Fatalf("%s: heights differ", alg)
		}
		for i := range la {
			if len(la[i]) != len(lb[i]) {
				t.Fatalf("%s: level %d sizes differ", alg, i)
			}
			for j := range la[i] {
				if !la[i][j].Equal(lb[i][j]) {
					t.Fatalf("%s: MBR %d/%d differs", alg, i, j)
				}
			}
		}
	}
}

// TestLoadRejectsInvalidRect: every loading algorithm refuses an item
// whose rectangle is NaN or inverted. Before the refusal, one NaN item
// among 201 cost a full-window search between 8 (nx) and 63 (hs, str) of
// the 200 valid items, with no error from Load.
func TestLoadRejectsInvalidRect(t *testing.T) {
	nan := math.NaN()
	bad := map[string]geom.Rect{
		"nan":      {MinX: nan, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		"inverted": {MinX: 0.3, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
	}
	rng := rand.New(rand.NewPCG(48, 4))
	valid := make([]rtree.Item, 200)
	for i := range valid {
		x, y := rng.Float64()*0.99, rng.Float64()*0.99
		valid[i] = rtree.Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}, ID: int64(i)}
	}
	for _, alg := range Algorithms() {
		for name, r := range bad {
			items := append(append([]rtree.Item{}, valid...), rtree.Item{Rect: r, ID: 200})
			if _, err := Load(alg, rtree.Params{MaxEntries: 8}, items); err == nil || !strings.Contains(err.Error(), "item 200 ") {
				t.Errorf("%s/%s: Load err = %v, want a refusal naming item 200", alg, name, err)
			}
		}
		tr, err := Load(alg, rtree.Params{MaxEntries: 8}, valid)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tr.SearchWindow(geom.UnitSquare)); got != len(valid) {
			t.Errorf("%s: full window found %d of %d items", alg, got, len(valid))
		}
	}
}
