package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
)

// The read path's contract (DESIGN §7c): a page is validated once, as it
// enters the pool; a query borrows the frame, scans it in place, and
// gives it back before it asks for another page; a steady-state query
// allocates its result slice and nothing else.

// restamp recomputes a tampered page's checksum, so only the structural
// checks stand between it and a query.
func restamp(page []byte) {
	binary.LittleEndian.PutUint32(page[checksumOffset:], pageChecksum(page))
}

// TestFaultRejectsStructurallyInvalidPage: a page whose checksum is right
// but whose entry count runs past the page end, or which holds an
// inverted rectangle, is refused as it enters the pool — every check
// DecodeNode makes is made at fault — through Pool and ShardedPool, by
// View, Get and Pin alike. It never becomes resident or pinned.
func TestFaultRejectsStructurallyInvalidPage(t *testing.T) {
	const capacity = 8
	for _, shards := range []int{1, 2} { // Pool, ShardedPool
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mem, err := NewMemoryManager(DefaultPageSize)
			if err != nil {
				t.Fatal(err)
			}
			tr := buildTestTree(t, 200, 16)
			if err := SaveTree(mem, tr); err != nil {
				t.Fatal(err)
			}
			if n := tr.NodeCount(); n < capacity+4 {
				t.Fatalf("tree of %d pages is too small for the scenario", n)
			}
			const overrunPage, invertedPage = 2, 3
			buf := make([]byte, DefaultPageSize)
			tamper := func(page int, f func([]byte)) {
				t.Helper()
				if err := mem.ReadPage(page, buf); err != nil {
					t.Fatal(err)
				}
				f(buf)
				restamp(buf)
				if VerifyPage(buf) != nil {
					t.Fatal("restamped page fails its checksum")
				}
				if _, err := DecodeNode(buf, page); err == nil {
					t.Fatalf("DecodeNode accepts tampered page %d", page)
				}
				if err := mem.WritePage(page, buf); err != nil {
					t.Fatal(err)
				}
			}
			tamper(overrunPage, func(b []byte) {
				binary.LittleEndian.PutUint16(b[2:4], uint16(NodeCapacity(DefaultPageSize)+1))
			})
			tamper(invertedPage, func(b []byte) {
				e := b[nodeHeaderSize:]
				putFloat(e, getFloat(e[16:])+1) // MinX past MaxX
			})

			pt, err := OpenPagedTreeWith(mem, capacity, "", shards)
			if err != nil {
				t.Fatal(err)
			}
			pool := pt.Pool()
			var failed uint64
			for _, tc := range []struct {
				page int
				want string
			}{
				{overrunPage, "entries beyond page end"},
				{invertedPage, "invalid rect"},
			} {
				check := func(how string, err error) {
					t.Helper()
					failed++
					if err == nil || !strings.Contains(err.Error(), tc.want) ||
						!strings.Contains(err.Error(), fmt.Sprintf("page %d", tc.page)) {
						t.Errorf("%s(%d): err = %v, want one naming the page and %q", how, tc.page, err, tc.want)
					}
					if got := pool.FailedReads(); got != failed {
						t.Errorf("%s(%d): FailedReads = %d, want %d", how, tc.page, got, failed)
					}
					if got := pool.Resident(); got != 0 {
						t.Errorf("%s(%d): %d pages resident, want none", how, tc.page, got)
					}
				}
				for i := 0; i < 2; i++ { // the second access is a miss again, not a hit on a bad frame
					info, err := pool.View(tc.page, func([]byte, bool) { t.Errorf("View(%d) lent out an invalid page", tc.page) })
					if info.Hit {
						t.Errorf("View(%d) #%d reports a hit", tc.page, i)
					}
					check("View", err)
				}
				_, err := pool.Get(tc.page)
				check("Get", err)
				check("Pin", pool.Pin(tc.page))
			}
			if _, misses, _ := pool.Stats(); misses != failed {
				t.Errorf("%d misses for %d refused reads", misses, failed)
			}

			// Nothing stayed pinned: healthy pages can still take every
			// frame of every shard (a leaked pin would leave a shard one
			// frame short, and the last Pin would be refused).
			pinned := 0
			for page := 0; pinned < capacity; page++ {
				if page == overrunPage || page == invertedPage {
					continue
				}
				if err := pool.Pin(page); err != nil {
					t.Fatalf("pinning healthy page %d (%d already pinned): %v", page, pinned, err)
				}
				pinned++
			}
		})
	}
}

// evictionFixture is a deep tree (fan-out 8, four levels or more) on a
// memory device, with its items for brute force; walked makes it an
// updated tree (one committed Insert), whose pages are out of level order
// so that ScanLeaves has to walk from the root.
func evictionFixture(t *testing.T, walked bool) (*MemoryManager, []rtree.Item) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1701, 1702))
	items := randItems(rng, 1500)
	tr := rtree.MustNew(rtree.Params{MaxEntries: 8})
	tr.InsertAll(items)
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	if walked {
		walDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
		if err != nil {
			t.Fatal(err)
		}
		pt, _, err := OpenPagedTreeWAL(dm, walDev, 4)
		if err != nil {
			t.Fatal(err)
		}
		extra := rtree.Item{Rect: geom.RectAround(geom.Point{X: 0.5, Y: 0.5}, 0.01, 0.01), ID: 1 << 40}
		if err := pt.Insert(extra); err != nil {
			t.Fatal(err)
		}
		items = append(items, extra)
	}
	return dm, items
}

// TestSearchSurvivesParentEviction pins the frame-lifetime rule: with a
// buffer smaller than the tree is tall, every child visit evicts its
// parent, and Pool hands the parent's frame to the child's fault. A
// search that read the parent's frame after visiting a child (or asked
// for the child from inside the View callback) would see another page's
// entries here, or deadlock the shard; one that scans a frame whole and
// gives it back first answers like brute force at any buffer size.
func TestSearchSurvivesParentEviction(t *testing.T) {
	type fixture struct {
		dm    *MemoryManager
		items []rtree.Item
	}
	fixtures := map[bool]fixture{}
	for _, walked := range []bool{false, true} {
		dm, items := evictionFixture(t, walked)
		fixtures[walked] = fixture{dm, items}
	}
	for _, policy := range []string{"lru", "clockpro"} {
		for _, shards := range []int{1, 2} { // Pool, ShardedPool
			for _, capacity := range []int{1, 2, 3} {
				for _, walked := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards=%d/buffer=%d/walked=%v", policy, shards, capacity, walked)
					t.Run(name, func(t *testing.T) {
						fx := fixtures[walked]
						pt, err := OpenPagedTreeWith(fx.dm, capacity, policy, shards)
						if err != nil {
							t.Fatal(err)
						}
						if pt.Meta().LevelOrder == walked {
							t.Fatalf("LevelOrder = %v on the walked=%v fixture", pt.Meta().LevelOrder, walked)
						}
						if levels := len(pt.Meta().Levels); levels < 3 || capacity >= levels {
							t.Fatalf("%d-level tree under a %d-page buffer: parents would stay resident", levels, capacity)
						}
						checkAgainstBruteForce(t, pt, fx.items)
					})
				}
			}
		}
	}
}

// checkAgainstBruteForce runs wide windows, point queries, kNN past one
// leaf and a full leaf scan against the item list.
func checkAgainstBruteForce(t *testing.T, pt *PagedTree, items []rtree.Item) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1703, 1704))
	for i := 0; i < 6; i++ {
		w := geom.RectAround(geom.Point{X: 0.3 + 0.4*rng.Float64(), Y: 0.3 + 0.4*rng.Float64()}, 0.6, 0.6)
		pt.Pool().ResetStats()
		got, err := pt.SearchWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := pt.Pool().Stats(); hits+misses < 50 {
			t.Fatalf("window %v touched %d pages: too small to cover 50 leaves", w, hits+misses)
		}
		var want []rtree.Item
		for _, it := range items {
			if it.Rect.Intersects(w) {
				want = append(want, it)
			}
		}
		if !sameIDs(got, want) {
			t.Fatalf("window %v: %d items, brute force %d", w, len(got), len(want))
		}
	}
	for i := 0; i < 20; i++ {
		p := items[rng.IntN(len(items))].Rect.Center()
		got, err := pt.SearchPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		var want []rtree.Item
		for _, it := range items {
			if it.Rect.ContainsPoint(p) {
				want = append(want, it)
			}
		}
		if !sameIDs(got, want) {
			t.Fatalf("point %v: %d items, brute force %d", p, len(got), len(want))
		}
	}
	const k = 30 // a leaf holds at most 8
	for i := 0; i < 10; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		got, err := pt.Nearest(p, k)
		if err != nil {
			t.Fatal(err)
		}
		dists := bruteDistances(items, p)
		if len(got) != k {
			t.Fatalf("kNN %v: %d neighbors, want %d", p, len(got), k)
		}
		for j, nb := range got {
			if math.Abs(nb.Dist-dists[j]) > 1e-12 {
				t.Fatalf("kNN %v neighbor %d at %g, brute force %g", p, j, nb.Dist, dists[j])
			}
		}
	}
	var scanned []rtree.Item
	if err := pt.ScanLeaves(func(it rtree.Item) error {
		scanned = append(scanned, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sameIDs(scanned, items) {
		t.Fatalf("leaf scan: %d items, stored %d", len(scanned), len(items))
	}
}

// TestScanLeavesVisitorMayQuery: the visitor runs between page reads,
// never while a frame is on loan, so it may query the tree it is scanning
// — on the sharded pool too, whose shard mutex is not reentrant.
func TestScanLeavesVisitorMayQuery(t *testing.T) {
	dm, items := evictionFixture(t, false)
	pt, err := OpenPagedTreeWith(dm, 3, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	if err := pt.ScanLeaves(func(it rtree.Item) error {
		visited++
		if visited%100 != 0 {
			return nil
		}
		got, err := pt.SearchPoint(it.Rect.Center())
		if err != nil {
			return err
		}
		for _, g := range got {
			if g.ID == it.ID {
				return nil
			}
		}
		return fmt.Errorf("item %d not found at its own center", it.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if visited != len(items) {
		t.Fatalf("scan visited %d of %d items", visited, len(items))
	}
}

// hotTree is the micro-benchmark and allocation-guard fixture: a packed
// three-level tree at the benchmark's fan-out, every page resident.
func hotTree(tb testing.TB, shards int) (*PagedTree, []rtree.Item) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(1705, 1706))
	items := randItems(rng, 30_000)
	tr := rtree.MustNew(rtree.Params{MaxEntries: 100})
	tr.InsertAll(items)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		tb.Fatal(err)
	}
	pt, err := OpenPagedTreeWith(dm, 2*tr.NodeCount(), "", shards)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pt.ScanLeaves(func(rtree.Item) error { return nil }); err != nil {
		tb.Fatal(err)
	}
	if _, err := pt.SearchWindow(geom.UnitSquare); err != nil { // faults the upper levels in, sizes the scratch
		tb.Fatal(err)
	}
	if _, err := pt.Nearest(geom.Point{X: 0.5, Y: 0.5}, 10); err != nil {
		tb.Fatal(err)
	}
	return pt, items
}

// TestQueryAllocations is the allocation gate on the paged tree's
// queries, on Pool and on ShardedPool: on a warm tree a point query that
// matches nothing allocates nothing, a window or kNN query allocates its
// result slice only, and a degraded window query its result and report.
// The metered runs hold the same counts with an obs mirror attached and
// the root pinned, so the mirror's hit, pin-hit and per-level hooks
// allocate nothing either.
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	for _, run := range []struct {
		shards  int // 1 is Pool, 8 ShardedPool
		metered bool
	}{{1, false}, {8, false}, {1, true}, {8, true}} {
		name := fmt.Sprintf("shards=%d", run.shards)
		if run.metered {
			name += ",metered"
		}
		t.Run(name, func(t *testing.T) {
			pt, _ := hotTree(t, run.shards)
			if run.metered {
				pt.SetMetrics(buffer.NewMetrics(obs.NewRegistry(), "lru"))
				if err := pt.PinLevels(1); err != nil {
					t.Fatal(err)
				}
			}
			_, misses, _ := pt.Pool().Stats()
			nowhere := geom.Point{X: 7, Y: 7} // outside the unit square the items live in
			w := geom.RectAround(geom.Point{X: 0.4, Y: 0.6}, 0.02, 0.02)
			p := geom.Point{X: 0.6, Y: 0.4}
			for _, tc := range []struct {
				name string
				want float64
				run  func() (int, error)
			}{
				{"SearchPoint, no match", 0, func() (int, error) { got, err := pt.SearchPoint(nowhere); return len(got), err }},
				{"SearchPoint", 1, func() (int, error) { got, err := pt.SearchPoint(p); return len(got), err }},
				{"SearchWindow", 1, func() (int, error) { got, err := pt.SearchWindow(w); return len(got), err }},
				{"Nearest", 1, func() (int, error) { got, err := pt.Nearest(p, 10); return len(got), err }},
				// The result and its report.
				{"SearchWindowDegraded", 2, func() (int, error) {
					got, rep := pt.SearchWindowDegraded(w)
					if rep.Degraded() {
						return len(got), fmt.Errorf("degraded on a healthy tree: %v", rep.Faults)
					}
					return len(got), nil
				}},
			} {
				n, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				if (n > 0) != (tc.want > 0) {
					t.Fatalf("%s returned %d results: the case does not test what it says", tc.name, n)
				}
				if got := testing.AllocsPerRun(200, func() { _, _ = tc.run() }); got != tc.want {
					t.Errorf("%s: %v allocations per query, want %v", tc.name, got, tc.want)
				}
			}
			if _, after, _ := pt.Pool().Stats(); after != misses {
				t.Errorf("%d misses on a warm tree: the guard measured faults, not hits", after-misses)
			}
		})
	}
}

// TestPutQueryCapsResultScratch: a full-window query or a kNN query for
// every item of a tree of more than maxScratchItems items leaves no
// result buffer beyond the cap in the recycling pool, while an ordinary
// query's scratch is kept for reuse. (rtree's TestNearestRecyclesSearch
// holds Frontier.Recycle, which caps the kNN queue's arrays, to the
// same cap.)
func TestPutQueryCapsResultScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	rng := rand.New(rand.NewPCG(1707, 1708))
	tr := rtree.MustNew(rtree.Params{MaxEntries: 100})
	tr.InsertAll(randItems(rng, maxScratchItems+5_000))
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenPagedTree(dm, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pt.SearchWindow(geom.UnitSquare)
	if err != nil || len(got) != tr.Len() {
		t.Fatalf("full-window search: %d of %d items, err %v", len(got), tr.Len(), err)
	}
	q := pt.getQuery()
	if cap(q.items) > maxScratchItems {
		t.Errorf("recycled query holds a %d-item result buffer, cap %d", cap(q.items), maxScratchItems)
	}
	pt.putQuery(q)
	near, err := pt.Nearest(geom.Point{X: 0.5, Y: 0.5}, tr.Len())
	if err != nil || len(near) != tr.Len() {
		t.Fatalf("kNN for every item: %d of %d items, err %v", len(near), tr.Len(), err)
	}
	q = pt.getQuery()
	if cap(q.found) > maxScratchItems {
		t.Errorf("recycled query holds a %d-item kNN result buffer, cap %d", cap(q.found), maxScratchItems)
	}
	for _, size := range []int{100, maxScratchItems, maxScratchItems + 1} {
		q.items = make([]rtree.Item, 0, size)
		pt.putQuery(q)
		if kept := cap(q.items) == size; kept != (size <= maxScratchItems) {
			t.Errorf("putQuery of a %d-item scratch left cap %d (limit %d)", size, cap(q.items), maxScratchItems)
		}
		q = pt.getQuery()
	}
}

var benchSink int

// packedDevice holds the page file of the benchmark's own tree shape,
// saved once per test binary: benchTree(1M), 10,101 pages.
var packedDevice struct {
	once sync.Once
	dm   *MemoryManager
	err  error
}

// packedHotTree is the tree read_hot queries, every page resident: 1M
// TIGER-like items Hilbert-packed at fan-out 100. Its query points are
// uniform in the unit square, as read_hot's kNN points are.
func packedHotTree(tb testing.TB, shards int) (*PagedTree, []geom.Point) {
	tb.Helper()
	packedDevice.once.Do(func() {
		tr := benchTree(tb, 1_000_000)
		packedDevice.dm, packedDevice.err = NewMemoryManager(DefaultPageSize)
		if packedDevice.err == nil {
			packedDevice.err = SaveTree(packedDevice.dm, tr)
		}
	})
	if packedDevice.err != nil {
		tb.Fatal(packedDevice.err)
	}
	dm := packedDevice.dm
	pt, err := OpenPagedTreeWith(dm, dm.NumPages(), "", shards)
	if err != nil {
		tb.Fatal(err)
	}
	for page := 0; page < dm.NumPages(); page++ {
		if _, err := pt.Pool().View(page, func([]byte, bool) {}); err != nil {
			tb.Fatal(err)
		}
	}
	center := geom.Point{X: 0.5, Y: 0.5}
	if _, err := pt.SearchWindow(geom.RectAround(center, 0.1, 0.1)); err != nil { // sizes the scratch
		tb.Fatal(err)
	}
	if _, err := pt.Nearest(center, 10); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1709, 1710))
	points := make([]geom.Point, 4096)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pt, points
}

// benchCount is a count a benchmark reports per query, in unit.
type benchCount struct {
	unit  string
	count func(pt *PagedTree, p geom.Point) int
}

// benchQueries runs one query kind on Pool and on the 8-shard
// ShardedPool over two hot trees: hotTree, built by 30,000 inserts and
// queried at item centers, and packedHotTree, the shape read_hot
// queries. Each of counts is reported per query; it is taken on a
// separate pass over the same points, after the timed loop.
func benchQueries(b *testing.B, run func(pt *PagedTree, p geom.Point) (int, error), counts ...benchCount) {
	fixtures := []struct {
		name string
		open func(tb testing.TB, shards int) (*PagedTree, []geom.Point)
	}{
		{"insert", func(tb testing.TB, shards int) (*PagedTree, []geom.Point) {
			pt, items := hotTree(tb, shards)
			points := make([]geom.Point, len(items))
			for i, it := range items {
				points[i] = it.Rect.Center()
			}
			return pt, points
		}},
		{"packed", packedHotTree},
	}
	for _, fx := range fixtures {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("tree=%s/shards=%d", fx.name, shards), func(b *testing.B) {
				pt, points := fx.open(b, shards)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := run(pt, points[i%len(points)])
					if err != nil {
						b.Fatal(err)
					}
					benchSink += n
				}
				b.StopTimer()
				for _, c := range counts {
					n := min(b.N, len(points))
					total := 0
					for _, p := range points[:n] {
						total += c.count(pt, p)
					}
					b.ReportMetric(float64(total)/float64(n), c.unit)
				}
			})
		}
	}
}

func BenchmarkPagedSearchPoint(b *testing.B) {
	benchQueries(b, func(pt *PagedTree, p geom.Point) (int, error) {
		got, err := pt.SearchPoint(p)
		return len(got), err
	})
}

func BenchmarkPagedSearchWindow(b *testing.B) {
	benchQueries(b, func(pt *PagedTree, p geom.Point) (int, error) {
		got, err := pt.SearchWindow(geom.RectAround(p, 0.01, 0.01))
		return len(got), err
	})
}

// BenchmarkPagedNearest times a k = 10 search, read_hot's kNN, and
// reports the entries its frontier queues and the pages it expands per
// query.
func BenchmarkPagedNearest(b *testing.B) {
	benchQueries(b, func(pt *PagedTree, p geom.Point) (int, error) {
		got, err := pt.Nearest(p, 10)
		return len(got), err
	}, benchCount{"pushes/op", func(pt *PagedTree, p geom.Point) int {
		q := pt.getQuery()
		defer pt.putQuery(q)
		if _, err := q.nearest(p, 10); err != nil {
			panic(err)
		}
		return q.frontier.Pushes()
	}}, benchCount{"pages/op", func(pt *PagedTree, p geom.Point) int {
		pages, _, err := tracedNearest(pt, p, 10)
		if err != nil {
			panic(err)
		}
		return len(pages)
	}})
}
