package nd

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// dfsWindow is the reference order of a window query: every leaf entry
// in depth-first order, kept if it intersects q. Exact MBRs make this
// the order a pruned descent reports.
func dfsWindow(t *Tree, q Rect) []Item {
	var out []Item
	t.walk(func(n *node) {
		if !n.isLeaf() {
			return
		}
		for _, e := range n.entries {
			if e.rect.Intersects(q) {
				out = append(out, Item{Rect: e.rect, ID: e.id})
			}
		}
	})
	return out
}

func sameItems(a, b []Item) bool {
	return slices.EqualFunc(a, b, func(x, y Item) bool {
		return x.ID == y.ID && slices.Equal(x.Rect.Min, y.Rect.Min) && slices.Equal(x.Rect.Max, y.Rect.Max)
	})
}

// TestNDSearchOrder: SearchWindow and SearchPoint return bruteWindow's
// items in depth-first order, nil when nothing matches.
func TestNDSearchOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3621, 3622))
	for _, dims := range []int{2, 3, 5} {
		items := randItems(rng, dims, 2000)
		tr, err := Pack(Params{Dims: dims, MaxEntries: 10}, items, HilbertOrdering(dims))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i := 0; i < 50; i++ {
			c := randPoint(rng, dims)
			q := Rect{Min: make(Point, dims), Max: make(Point, dims)}
			for d := range c {
				h := rng.Float64() * 0.1
				q.Min[d], q.Max[d] = c[d]-h, c[d]+h
			}
			got, want := tr.SearchWindow(q), dfsWindow(tr, q)
			if !sameItems(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("dims %d: SearchWindow returned %d items, DFS reference %d (order or nil-ness differs)", dims, len(got), len(want))
			}
			if !equalID(idsOfItems(got), bruteWindow(items, q)) {
				t.Fatalf("dims %d: SearchWindow disagrees with bruteWindow", dims)
			}
			if len(got) > 0 {
				hits++
			}
		}
		p := items[0].Rect.Min
		if got, want := tr.SearchPoint(p), dfsWindow(tr, PointRect(p)); len(got) == 0 || !sameItems(got, want) {
			t.Fatalf("dims %d: SearchPoint returned %d items, DFS reference %d", dims, len(got), len(want))
		}
		far := make(Point, dims)
		for d := range far {
			far[d] = 7
		}
		if got := tr.SearchPoint(far); got != nil {
			t.Fatalf("dims %d: SearchPoint outside the data returned %v, want nil", dims, got)
		}
		if hits == 0 {
			t.Fatalf("dims %d: no window hit anything", dims)
		}
	}
}
