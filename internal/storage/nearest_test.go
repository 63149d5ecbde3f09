package storage

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// refEntry is one queued element of unboundedNearest: a page, or an item
// when isItem is set.
type refEntry struct {
	distSq float64
	seq    int
	page   int
	item   rtree.Item
	isItem bool
}

// refQueue is a min-heap in (squared distance, push order).
type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].distSq < q[j].distSq || !(q[j].distSq < q[i].distSq) && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refDistSq is the squared minimum distance from p to r, computed as the
// frontier computes it, so ties are ties in both searches.
func refDistSq(p geom.Point, r geom.Rect) float64 {
	dx := max(r.MinX-p.X, 0, p.X-r.MaxX)
	dy := max(r.MinY-p.Y, 0, p.Y-r.MaxY)
	return dx*dx + dy*dy
}

// unboundedNearest is best-first search the plain way over pt's pages:
// every entry of every expanded page is queued, with no bound of any
// kind, and the queue pops the least (squared distance, push order). It
// returns the pages expanded and the items found, in order.
func unboundedNearest(t *testing.T, pt *PagedTree, p geom.Point, k int) ([]int, []rtree.Neighbor) {
	t.Helper()
	q := &refQueue{{page: 0}}
	seq := 1
	var pages []int
	var found []rtree.Neighbor
	for q.Len() > 0 && len(found) < k {
		e := heap.Pop(q).(refEntry)
		if e.isItem {
			found = append(found, rtree.Neighbor{Item: e.item, Dist: math.Sqrt(e.distSq)})
			continue
		}
		pages = append(pages, e.page)
		var nd rtree.NodeData
		var err error
		if _, verr := pt.Pool().View(e.page, func(frame []byte, _ bool) { nd, err = DecodeNode(frame, e.page) }); verr != nil {
			t.Fatal(verr)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range nd.Rects {
			x := refEntry{distSq: refDistSq(p, r), seq: seq}
			if nd.Leaf {
				x.item, x.isItem = rtree.Item{Rect: r, ID: nd.IDs[i]}, true
			} else {
				x.page = nd.Children[i]
			}
			heap.Push(q, x)
			seq++
		}
	}
	return pages, found
}

// tracedNearest is PagedTree.Nearest's search with the pages it expands
// recorded, in expansion order.
func tracedNearest(pt *PagedTree, p geom.Point, k int) ([]int, []rtree.Neighbor, error) {
	q := pt.getQuery()
	defer pt.putQuery(q)
	var pages []int
	q.expand = func(n pageRef) error {
		pages = append(pages, n.page)
		return q.expandNode(n)
	}
	defer func() { q.expand = q.expandNode }()
	found, err := q.nearest(p, k)
	return pages, slices.Clone(found), err
}

// sameNeighbors reports whether a and b hold the same items at the same
// distances, bit for bit, in the same order.
func sameNeighbors(a, b []rtree.Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y rtree.Neighbor) bool {
		return sameItemBits([]rtree.Item{x.Item}, []rtree.Item{y.Item}) && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
	})
}

// nearestFixtures are the trees of TestNearestMatchesUnboundedSearch: a
// Hilbert-packed TIGER-like tree at fan-out 100, and a copy of it updated
// through the WAL — lattice points inserted twice each, so distances tie,
// and a slice of the packed items deleted — whose pages are out of level
// order.
func nearestFixtures(t *testing.T) []nearestFixture {
	t.Helper()
	n := 100_000
	if raceEnabled {
		n = 30_000 // the race detector multiplies the bulk load's cost
	}
	tr := benchTree(t, n)
	items := tr.Items()
	save := func() *MemoryManager {
		dm, err := NewMemoryManager(DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveTree(dm, tr); err != nil {
			t.Fatal(err)
		}
		return dm
	}
	packedDM := save()
	packed, err := OpenPagedTree(packedDM, packedDM.NumPages())
	if err != nil {
		t.Fatal(err)
	}

	updatedDM := save()
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	updated, _, err := OpenPagedTreeWAL(updatedDM, walDev, 2*updatedDM.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	const lattice = 16
	id := int64(1) << 40
	for i := 0; i <= lattice; i++ {
		for j := 0; j <= lattice; j++ {
			r := geom.PointRect(geom.Point{X: float64(i) / lattice, Y: float64(j) / lattice})
			for c := 0; c < 2; c++ {
				if err := updated.Insert(rtree.Item{Rect: r, ID: id}); err != nil {
					t.Fatal(err)
				}
				id++
			}
		}
	}
	for _, it := range items[:len(items)/20] {
		if found, err := updated.Delete(it); err != nil || !found {
			t.Fatalf("Delete %d: found=%v err=%v", it.ID, found, err)
		}
	}
	if updated.Meta().LevelOrder {
		t.Fatal("the updated tree is still in level order: the fixture does not test what it says")
	}
	return []nearestFixture{{"packed", packed}, {"updated", updated}}
}

type nearestFixture struct {
	name string
	pt   *PagedTree
}

// TestNearestMatchesUnboundedSearch: PagedTree.Nearest, with its
// expansion-scoped pushes and its item and sibling bounds, expands the
// same pages and returns the same items, in the same order and at the
// same distances bit for bit, as a best-first search that queues every
// entry it reads. The trees are a packed one and a WAL-updated copy out
// of level order; k runs past the fan-out (100), where the sibling bound
// never applies; the points lie inside the data, outside the unit square
// and on a lattice that the updated tree's items tie on. A NaN point
// reads the root and returns nothing.
func TestNearestMatchesUnboundedSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1711, 1712))
	var points []geom.Point
	for i := 0; i < 40; i++ {
		points = append(points, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for i := 0; i <= 8; i += 2 {
		for j := 0; j <= 8; j += 2 {
			points = append(points, geom.Point{X: float64(i) / 8, Y: float64(j) / 8})
		}
	}
	points = append(points,
		geom.Point{X: -0.5, Y: 0.5}, geom.Point{X: 1.5, Y: 1.5}, geom.Point{X: 0.25, Y: -2},
		geom.Point{X: 3, Y: -1}, geom.Point{X: -10, Y: 10})
	nan := math.NaN()

	for _, fx := range nearestFixtures(t) {
		pt := fx.pt
		t.Run(fx.name, func(t *testing.T) {
			for _, k := range []int{1, 10, 100, 101, 250} {
				for _, p := range points {
					pages, got, err := tracedNearest(pt, p, k)
					if err != nil {
						t.Fatal(err)
					}
					wantPages, want := unboundedNearest(t, pt, p, k)
					if !slices.Equal(pages, wantPages) {
						t.Fatalf("k=%d p=%v: expanded pages %v, unbounded search %v", k, p, pages, wantPages)
					}
					if !sameNeighbors(got, want) {
						t.Fatalf("k=%d p=%v: found %v, unbounded search %v", k, p, got, want)
					}
					if public, err := pt.Nearest(p, k); err != nil || !sameNeighbors(public, want) {
						t.Fatalf("k=%d p=%v: Nearest returned %v (err %v), unbounded search %v", k, p, public, err, want)
					}
				}
				for _, p := range []geom.Point{{X: nan, Y: 0.5}, {X: 0.5, Y: nan}, {X: nan, Y: nan}} {
					pages, got, err := tracedNearest(pt, p, k)
					if err != nil || len(got) != 0 || !slices.Equal(pages, []int{0}) {
						t.Fatalf("k=%d p=%v: expanded %v, found %v, err %v; want the root only and nothing", k, p, pages, got, err)
					}
				}
			}
		})
	}
}

// countBoundFixtures are the trees of TestNearestCountBoundMatchesUnboundedSearch,
// each opened on Pool and on a 4-shard ShardedPool:
//   - half-built: 20,000 inserted items with a buffer of half the pages,
//     whose even pages are indexed up front, so a query meets children
//     with a count and children without one, and hits beside faults;
//   - underfull: clusterItems packed by x at fan-out 100, whose last leaf
//     holds 7 entries and whose second internal node has one child;
//   - condensed: a WAL tree that lost 60 % of 6,000 inserted items, enough
//     to dissolve underfull nodes and free their pages, and gained a 9 x 9
//     lattice of points inserted twice each, so distances tie; its Pool arm
//     is the WAL handle, indexed and forgotten by its commits.
func countBoundFixtures(t *testing.T) []nearestFixture {
	t.Helper()
	open := func(dm *MemoryManager, pages, shards int) *PagedTree {
		pt, err := OpenPagedTreeWith(dm, pages, "", shards)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	var out []nearestFixture

	halfDM, _ := savedTree(t, 5001, 20_000)
	for _, shards := range []int{1, 4} {
		pt := open(halfDM, halfDM.NumPages()/2, shards)
		for page := 0; page < halfDM.NumPages(); page += 2 {
			if _, err := pt.Pool().View(page, func(frame []byte, _ bool) { pt.index.of(page, frame) }); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, nearestFixture{fmt.Sprintf("half-built/shards=%d", shards), pt})
	}

	packed, err := pack.Load(pack.NearestX, rtree.Params{MaxEntries: 100}, clusterItems())
	if err != nil {
		t.Fatal(err)
	}
	underDM, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(underDM, packed); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		pt := open(underDM, underDM.NumPages(), shards)
		if levels := pt.Meta().Levels; !slices.Equal(levels, []int{1, 2, 101}) {
			t.Fatalf("underfull tree has levels %v, want [1 2 101]", levels)
		}
		out = append(out, nearestFixture{fmt.Sprintf("underfull/shards=%d", shards), pt})
	}

	condDM, items := savedTree(t, 5003, 6_000)
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenPagedTreeWAL(condDM, walDev, condDM.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.ID%5 >= 3 {
			continue
		}
		if found, err := wal.Delete(it); err != nil || !found {
			t.Fatalf("Delete %d: found=%v err=%v", it.ID, found, err)
		}
	}
	id := int64(1) << 40
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			r := geom.PointRect(geom.Point{X: float64(i) / 8, Y: float64(j) / 8})
			for c := 0; c < 2; c++ {
				if err := wal.Insert(rtree.Item{Rect: r, ID: id}); err != nil {
					t.Fatal(err)
				}
				id++
			}
		}
	}
	if len(wal.Meta().Free) == 0 {
		t.Fatal("the deletes freed no page: the condensed tree does not test what it says")
	}
	out = append(out, nearestFixture{"condensed/shards=1", wal},
		nearestFixture{"condensed/shards=4", open(condDM, condDM.NumPages(), 4)})
	return out
}

// clusterItems returns 10,007 point items in 100 clusters, cluster j at
// x = (j+0.5)/100: 100 copies of one point each, except cluster 7, which
// has 200, and cluster 99, which has 7. Packed by x at fan-out 100, every
// leaf holds one cluster, so a leaf's MAXDIST is its items' distance
// and a count one too high is a wrong bound, and cluster 7 fills leaves
// 7 and 8, which lie in different groups of their parent at the same
// distance.
func clusterItems() []rtree.Item {
	rng := rand.New(rand.NewPCG(5007, 5008))
	var items []rtree.Item
	for j := 0; j < 100; j++ {
		n := 100
		switch j {
		case 7:
			n = 200
		case 99:
			n = 7
		}
		r := geom.PointRect(geom.Point{X: (float64(j) + 0.5) / 100, Y: rng.Float64()})
		for range n {
			items = append(items, rtree.Item{Rect: r, ID: int64(len(items))})
		}
	}
	return items
}

// TestNearestCountBoundMatchesUnboundedSearch: with the sibling bound
// counting each child page's entries (1 while its index slot is unbuilt)
// and a hit reading a page's nearest groups first, PagedTree.Nearest
// expands the same pages and returns the same items, in the same order
// and at the same distances bit for bit, as a best-first search that
// queues every entry it reads. k runs from 1 past the fan-out (100) and
// around the underfull nodes' counts; the points lie inside the data,
// on the condensed tree's lattice and on the clusters, where items tie,
// and outside the unit square. Each tree ends with pages whose counts the bound used.
func TestNearestCountBoundMatchesUnboundedSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5005, 5006))
	var points []geom.Point
	for i := 0; i < 25; i++ {
		points = append(points, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for i := 0; i <= 8; i += 2 {
		for j := 1; j <= 8; j += 3 {
			points = append(points, geom.Point{X: float64(i) / 8, Y: float64(j) / 8},
				geom.Point{X: (float64(i) + 0.5) / 8, Y: (float64(j) + 0.5) / 8})
		}
	}
	points = append(points, geom.Point{X: -0.5, Y: 0.5}, geom.Point{X: 1.5, Y: 1.5}, geom.Point{X: 3, Y: -1})
	clusters := clusterItems()
	for i, it := range clusters {
		if i == 0 || it.Rect != clusters[i-1].Rect {
			points = append(points, it.Rect.Center())
		}
	}

	for _, fx := range countBoundFixtures(t) {
		pt := fx.pt
		t.Run(fx.name, func(t *testing.T) {
			for _, k := range []int{1, 9, 10, 11, 100, 101, 250} {
				for _, p := range points {
					pages, got, err := tracedNearest(pt, p, k)
					if err != nil {
						t.Fatal(err)
					}
					wantPages, want := unboundedNearest(t, pt, p, k)
					if !slices.Equal(pages, wantPages) {
						t.Fatalf("k=%d p=%v: expanded pages %v, unbounded search %v", k, p, pages, wantPages)
					}
					if !sameNeighbors(got, want) {
						t.Fatalf("k=%d p=%v: found %v, unbounded search %v", k, p, got, want)
					}
				}
			}
			if counted := builtPages(pt); counted == 0 {
				t.Fatal("no page has a count: the bound was never tested with one")
			}
		})
	}
}
