package storage

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// The page index (pageindex.go): built on a page's first hit, never on a
// fault, dropped by the commit that rewrites the page. These tests hold
// it to that lifecycle; TestScanFrameMatchesDecode and FuzzDecodeNode
// hold the grouped scans to the plain ones.

// builtPages counts the pages whose group MBRs are built.
func builtPages(pt *PagedTree) int {
	n := 0
	for _, g := range pt.index.groups {
		if len(g) > 0 {
			n++
		}
	}
	return n
}

// savedTree saves a tree of n random items at fan-out 100 to a memory
// device and returns the device and the items.
func savedTree(t *testing.T, seed uint64, n int) (*MemoryManager, []rtree.Item) {
	t.Helper()
	items := randItems(rand.New(rand.NewPCG(seed, seed+1)), n)
	tr := rtree.MustNew(rtree.Params{MaxEntries: 100})
	tr.InsertAll(items)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	return dm, items
}

// TestPageIndexBuiltOnHitsOnly: on Pool and on ShardedPool, a search
// over a cold buffer, where every read is a fault, builds no page's
// groups — a full-window search, and a kNN search for every item, which
// expands every node once. The same search again, where every read is a
// hit, builds every page's groups, each the MBR of its run of groupSize
// entries, and returns what the cold one did, in the same order.
func TestPageIndexBuiltOnHitsOnly(t *testing.T) {
	dm, items := savedTree(t, 4301, 5000)
	center := geom.Point{X: 0.5, Y: 0.5}
	for _, shards := range []int{1, 4} {
		for _, kind := range []string{"window", "nearest"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, kind), func(t *testing.T) {
				pt, err := OpenPagedTreeWith(dm, dm.NumPages(), "", shards)
				if err != nil {
					t.Fatal(err)
				}
				search := func() []rtree.Item {
					t.Helper()
					if kind == "window" {
						got, err := pt.SearchWindow(everything)
						if err != nil {
							t.Fatal(err)
						}
						return got
					}
					near, err := pt.Nearest(center, len(items))
					if err != nil {
						t.Fatal(err)
					}
					got := make([]rtree.Item, len(near))
					for i, nb := range near {
						got[i] = nb.Item
					}
					return got
				}
				cold := search()
				if n := builtPages(pt); n != 0 {
					t.Fatalf("a search whose every read faulted built %d pages' groups", n)
				}
				hot := search()
				if len(cold) != len(items) || !sameItemBits(cold, hot) {
					t.Fatalf("cold search %d items, hot %d, of %d stored", len(cold), len(hot), len(items))
				}
				checkGroups(t, pt, dm)
			})
		}
	}
}

// checkGroups checks that every page of dm has its groups built in pt's
// index, each the MBR of its run of groupSize entries.
func checkGroups(t *testing.T, pt *PagedTree, dm DiskManager) {
	t.Helper()
	buf := make([]byte, dm.PageSize())
	for page := 0; page < dm.NumPages(); page++ {
		if err := dm.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			t.Fatal(err)
		}
		var want []geom.Rect
		for lo := 0; lo < len(nd.Rects); lo += groupSize {
			want = append(want, geom.MBR(nd.Rects[lo:min(lo+groupSize, len(nd.Rects))]))
		}
		if got := pt.index.groups[page]; !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("page %d (%d entries): groups %v, want %v", page, len(nd.Rects), got, want)
		}
	}
}

// TestPushFrameGroupAtNaNDistance: around a point at x = +Inf, a group
// that reaches x = +Inf is at NaN distance (Inf - Inf) while its finite
// entries are at +Inf, within the unbounded frontier's bound. The grouped
// kNN scan must offer them as the plain one does, not skip the group.
func TestPushFrameGroupAtNaNDistance(t *testing.T) {
	nd := rtree.NodeData{Leaf: true}
	for i := 0; i < groupSize; i++ {
		r := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
		if i == 0 {
			r.MaxX = math.Inf(1)
		}
		nd.Rects = append(nd.Rects, r)
		nd.IDs = append(nd.IDs, int64(i))
	}
	frame, err := EncodeNode(nd, DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: math.Inf(1), Y: 0.5}
	var found [2][]rtree.Neighbor
	for i, hit := range []bool{false, true} {
		q := &query{pt: frameTree(frame)}
		found[i], _ = pushSequence(&q.frontier, p, func(root pageRef) {
			q.node = pageRef{0, root.depth}
			q.pushFrame(frame, hit)
		})
	}
	if len(found[0]) != groupSize-1 || len(found[1]) != len(found[0]) {
		t.Fatalf("plain scan offers %d items, grouped %d, want %d", len(found[0]), len(found[1]), groupSize-1)
	}
}

// TestPageIndexRewrite: on a WAL tree whose buffer holds two pages (the
// root and one leaf), a commit that rewrites a leaf drops the leaf's
// groups, and the hits after it scan the new entries: groupSize inserts
// into one leaf, each followed by a search that hits the leaf, find
// every item inserted. A fault of the rewritten leaf, once it has been
// evicted, scans it plainly and builds nothing; the hit after it builds
// the groups again. Every search matches brute force, and so does a kNN
// search through the rebuilt groups.
func TestPageIndexRewrite(t *testing.T) {
	dm, items := savedTree(t, 4303, 3000)
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if levels := len(pt.Meta().Levels); levels != 2 {
		t.Fatalf("fixture has %d levels, want 2 (a root over leaves)", levels)
	}

	// For each leaf, a point only its root entry covers: an insert there
	// enlarges nothing and rewrites that leaf alone.
	buf := make([]byte, dm.PageSize())
	decode := func(page int) rtree.NodeData {
		t.Helper()
		if err := dm.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	root := decode(0)
	type spot struct {
		page  int
		at    geom.Point
		count int
	}
	var spots []spot
	for i, child := range root.Children {
		leaf := decode(child)
		for _, r := range leaf.Rects {
			p, covering := r.Center(), 0
			for _, rr := range root.Rects {
				if rr.ContainsPoint(p) {
					covering++
				}
			}
			if covering == 1 && root.Rects[i].ContainsPoint(p) {
				spots = append(spots, spot{child, p, len(leaf.Rects)})
				break
			}
		}
	}
	target := slices.IndexFunc(spots, func(s spot) bool { return s.count+groupSize+1 <= 100 })
	if target < 0 || len(spots) < 3 {
		t.Fatalf("fixture has no leaf with room for %d inserts among %d usable leaves", groupSize+1, len(spots))
	}
	p := spots[target]
	others := slices.Delete(slices.Clone(spots), target, target+1)[:2]

	check := func(when string) {
		t.Helper()
		got, err := pt.SearchPoint(p.at)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, it := range items {
			if it.Rect.ContainsPoint(p.at) {
				want = append(want, it.ID)
			}
		}
		if ids := itemIDs(got); !sameIDSet(ids, want) {
			t.Fatalf("%s: point query finds %v, want %v", when, ids, want)
		}
	}
	groupsOf := func() []geom.Rect { return pt.index.groups[p.page] }

	check("first search (faults)")
	check("second search (hits)")
	if len(groupsOf()) == 0 {
		t.Fatal("two searches through the leaf did not build its groups")
	}
	for k := 0; k < groupSize; k++ {
		it := rtree.Item{Rect: geom.PointRect(p.at), ID: 1<<40 + int64(k)}
		if err := pt.Insert(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
		if len(groupsOf()) != 0 {
			t.Fatalf("insert %d rewrote page %d and left its groups built", k, p.page)
		}
		check(fmt.Sprintf("hit after insert %d", k))
	}

	it := rtree.Item{Rect: geom.PointRect(p.at), ID: 1<<40 + groupSize}
	if err := pt.Insert(it); err != nil {
		t.Fatal(err)
	}
	items = append(items, it)
	for _, o := range others { // the two-page buffer evicts the leaf
		if _, err := pt.SearchPoint(o.at); err != nil {
			t.Fatal(err)
		}
	}
	pt.Pool().ResetStats()
	check("fault after the rewrite")
	if hits, misses, _ := pt.Pool().Stats(); hits != 1 || misses != 1 {
		t.Fatalf("search after eviction: %d hits, %d misses, want the root's hit and the leaf's fault", hits, misses)
	}
	if len(groupsOf()) != 0 {
		t.Fatalf("a fault of page %d built its groups", p.page)
	}
	check("hit after the fault")
	if len(groupsOf()) == 0 {
		t.Fatal("the hit after the fault did not build the groups")
	}

	got, err := pt.Nearest(p.at, groupSize+3)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteDistances(items, p.at)[:groupSize+3]
	for i, nb := range got {
		if nb.Dist != want[i] {
			t.Fatalf("neighbour %d at %v, want %v", i, nb.Dist, want[i])
		}
	}
}

// sameIDSet reports whether a and b hold the same IDs, in any order.
func sameIDSet(a, b []int64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestPageIndexChangesNoVisit: a point, window or kNN query whose reads
// all hit, through built groups, reads as many pages as the same query
// on a tree whose one-frame buffer makes every read a fault, and
// returns the same answer in the same order: the groups skip entries,
// never a page.
func TestPageIndexChangesNoVisit(t *testing.T) {
	dm, _ := savedTree(t, 4309, 10_000)
	hot, err := OpenPagedTree(dm, dm.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // fault every page in, then build every page's groups
		if _, err := hot.SearchWindow(everything); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := OpenPagedTree(dm, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4311, 4312))
	for i := 0; i < 300; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		var reads [2]uint64
		var got [2]result
		for j, pt := range []*PagedTree{hot, cold} {
			pt.Pool().ResetStats()
			if got[j], err = ask(pt, i, p); err != nil {
				t.Fatal(err)
			}
			hits, misses, _ := pt.Pool().Stats()
			reads[j] = hits + misses
		}
		if reads[0] != reads[1] || !sameItemBits(got[0].items, got[1].items) || !slices.Equal(got[0].near, got[1].near) {
			t.Fatalf("query %d around %v: %d reads through the groups, %d plain; answers %v %v and %v %v",
				i, p, reads[0], reads[1], got[0].items, got[0].near, got[1].items, got[1].near)
		}
	}
}

// result is the answer of one query ask makes.
type result struct {
	items []rtree.Item
	near  []rtree.Neighbor
}

// ask runs query i around p on tree: a point query, a 0.02² window
// query or a k = 10 kNN query, by i mod 3.
func ask(tree *PagedTree, i int, p geom.Point) (result, error) {
	var r result
	var err error
	switch i % 3 {
	case 0:
		r.items, err = tree.SearchPoint(p)
	case 1:
		r.items, err = tree.SearchWindow(geom.RectAround(p, 0.02, 0.02))
	default:
		r.near, err = tree.Nearest(p, 10)
	}
	return r, err
}

// TestPageIndexConcurrentFirstHits: four goroutines query one ShardedPool
// tree whose pages are all resident but none built, so their first hits
// build the groups and entry counts concurrently, each under its page's
// shard mutex, while kNN queries (k = 10, and 101, past one leaf's
// entries) read the counts of the children they are offered under their
// parents' mutexes. Every point, window and kNN query returns what it
// returns on a tree whose one-frame buffer makes every read a fault, in
// the same order, and every built page ends with its own entry count.
// Run under -race (CI repeats it).
func TestPageIndexConcurrentFirstHits(t *testing.T) {
	dm, _ := savedTree(t, 4305, 10_000)
	pt, err := OpenPagedTreeWith(dm, dm.NumPages(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < dm.NumPages(); page++ {
		if _, err := pt.Pool().View(page, func([]byte, bool) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := builtPages(pt); n != 0 {
		t.Fatalf("faulting the pages in built %d pages' groups", n)
	}
	ref, err := OpenPagedTree(dm, 1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(4307, 4308))
	points := make([]geom.Point, 150)
	want := make([]result, len(points))
	wide := make([][]rtree.Neighbor, len(points))
	for i := range points {
		points[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if want[i], err = ask(ref, i, points[i]); err != nil {
			t.Fatal(err)
		}
		if wide[i], err = ref.Nearest(points[i], 101); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range points {
				i := (j + g*len(points)/4) % len(points)
				got, err := ask(pt, i, points[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameItemBits(got.items, want[i].items) || !slices.Equal(got.near, want[i].near) {
					t.Errorf("goroutine %d, query %d: %v %v, want %v %v", g, i, got.items, got.near, want[i].items, want[i].near)
					return
				}
				if i%3 != 2 {
					continue
				}
				if near, err := pt.Nearest(points[i], 101); err != nil || !slices.Equal(near, wide[i]) {
					t.Errorf("goroutine %d, query %d: k=101 returned %v (err %v), want %v", g, i, near, err, wide[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if builtPages(pt) == 0 {
		t.Fatal("the queries built no page's groups")
	}
	for page, g := range pt.index.groups {
		var count int
		if _, err := pt.Pool().View(page, func(frame []byte, _ bool) { count = pageCount(frame) }); err != nil {
			t.Fatal(err)
		}
		if built, n := len(g) > 0, int(pt.index.counts[page].Load()); built && n != count || !built && n != 0 {
			t.Errorf("page %d (built %v, %d entries) has a count of %d", page, built, count, n)
		}
	}
}
