package rtree_test

import (
	"fmt"
	"sort"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// ExampleTree_Insert builds a small tree with Guttman insertion (the
// paper's TAT primitive), queries it, then deletes.
func ExampleTree_Insert() {
	tree := rtree.MustNew(rtree.Params{MaxEntries: 4})
	boxes := []geom.Rect{
		{MinX: 0.0, MinY: 0.0, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.1, MinY: 0.1, MaxX: 0.3, MaxY: 0.3},
		{MinX: 0.7, MinY: 0.7, MaxX: 0.9, MaxY: 0.9},
		{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6},
	}
	for i, b := range boxes {
		tree.Insert(rtree.Item{Rect: b, ID: int64(i)})
	}

	hits := tree.SearchPoint(geom.Point{X: 0.15, Y: 0.15})
	ids := make([]int, 0, len(hits))
	for _, h := range hits {
		ids = append(ids, int(h.ID))
	}
	sort.Ints(ids)
	fmt.Println("point query hits:", ids)

	tree.Delete(rtree.Item{Rect: boxes[1], ID: 1})
	fmt.Println("after delete:", len(tree.SearchPoint(geom.Point{X: 0.15, Y: 0.15})), "hit(s)")
	fmt.Println("invariants ok:", tree.CheckInvariants() == nil)
	// Output:
	// point query hits: [0 1]
	// after delete: 1 hit(s)
	// invariants ok: true
}

// ExamplePack bulk-loads with the paper's General Algorithm and shows the
// level structure the cost model consumes.
func ExamplePack() {
	var items []rtree.Item
	for i := 0; i < 64; i++ {
		x, y := float64(i%8)/8, float64(i/8)/8
		items = append(items, rtree.Item{
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
			ID:   int64(i),
		})
	}
	// Order by center-x: the Nearest-X packing of Roussopoulos–Leifker.
	byX := rtree.Ordering(func(rects []geom.Rect, _ int) []int {
		perm := make([]int, len(rects))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			return rects[perm[a]].Center().X < rects[perm[b]].Center().X
		})
		return perm
	})
	tree, err := rtree.Pack(rtree.Params{MaxEntries: 8}, items, byX)
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes per level (root..leaf):", tree.NodesPerLevel())
	fmt.Println("pages:", tree.AssignPageIDs())
	// Output:
	// nodes per level (root..leaf): [1 8]
	// pages: 9
}
