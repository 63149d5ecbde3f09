package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// The entry scan (DESIGN §7c): queries read a validated frame in place,
// and scanFrame's window test is geom.Rect.Intersects taken apart. These
// tests hold the in-place readers to DecodeNode, the reference decoder,
// on both paths: a fault's plain scan and a hit's scan through the
// page's group MBRs (pageindex.go).

// frameTree returns a tree whose page index has one unbuilt slot, page
// 0, for pages of len(frame) bytes: what scanFrame and pushFrame need to
// read frame as a hit.
func frameTree(frame []byte) *PagedTree {
	return &PagedTree{index: newPageIndex(1, len(frame))}
}

// scanPage runs scanFrame over frame, page 0, with window w, as a fault
// (hit false) or as a hit, and returns what it collected: the leaf flag,
// the matching leaf items, the matching children.
func scanPage(frame []byte, w geom.Rect, hit bool) (leaf bool, items []rtree.Item, kids []int) {
	q := &query{pt: frameTree(frame), window: w, kids: make([][]int, 1)}
	q.scanFrame(frame, hit)
	return q.leaf, q.items, q.kids[0]
}

// pathName names the scan path a hit flag selects, for failure messages.
func pathName(hit bool) string {
	if hit {
		return "grouped"
	}
	return "plain"
}

// wantScan is scanPage's reference: DecodeNode, then Intersects per entry.
func wantScan(t *testing.T, frame []byte, w geom.Rect) (items []rtree.Item, kids []int) {
	t.Helper()
	nd, err := DecodeNode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range nd.Rects {
		switch {
		case !r.Intersects(w):
		case nd.Leaf:
			items = append(items, rtree.Item{Rect: r, ID: nd.IDs[i]})
		default:
			kids = append(kids, nd.Children[i])
		}
	}
	return items, kids
}

// sameItemBits compares two item lists in order, rectangles bit for bit.
func sameItemBits(a, b []rtree.Item) bool {
	return slices.EqualFunc(a, b, func(x, y rtree.Item) bool {
		return x.ID == y.ID && sameBits(x.Rect, y.Rect)
	})
}

func sameBits(r, s geom.Rect) bool {
	return math.Float64bits(r.MinX) == math.Float64bits(s.MinX) &&
		math.Float64bits(r.MinY) == math.Float64bits(s.MinY) &&
		math.Float64bits(r.MaxX) == math.Float64bits(s.MaxX) &&
		math.Float64bits(r.MaxY) == math.Float64bits(s.MaxY)
}

// gridRect is a rectangle on a 1/8 grid over [-1, 1]², up to three
// cells wide and high, zero-width, zero-height and single points
// included: on a grid, entry edges land exactly on window edges.
func gridRect(rng *rand.Rand) geom.Rect {
	cell := func() float64 { return float64(rng.IntN(17)-8) / 8 }
	x, y := cell(), cell()
	return geom.Rect{MinX: x, MinY: y, MaxX: x + float64(rng.IntN(4))/8, MaxY: y + float64(rng.IntN(4))/8}
}

// randomPage encodes a leaf or internal page of n grid rectangles with
// random payloads.
func randomPage(t testing.TB, rng *rand.Rand, leaf bool, n int) []byte {
	t.Helper()
	nd := rtree.NodeData{Leaf: leaf}
	for i := 0; i < n; i++ {
		nd.Rects = append(nd.Rects, gridRect(rng))
		if leaf {
			nd.IDs = append(nd.IDs, int64(rng.Uint64()))
		} else {
			nd.Children = append(nd.Children, rng.IntN(1<<30))
		}
	}
	page, err := EncodeNode(nd, DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// scanWindows is the window set one page is scanned with: grid windows,
// every corner and edge of one of its entries as a degenerate window,
// everything, an inverted window, and NaN in each coordinate.
func scanWindows(rng *rand.Rand, entry geom.Rect) []geom.Rect {
	ws := []geom.Rect{everything, {MinX: 0.5, MinY: 0.5, MaxX: -0.5, MaxY: -0.5}}
	for i := 0; i < 8; i++ {
		ws = append(ws, gridRect(rng))
	}
	x0, y0, x1, y1 := entry.MinX, entry.MinY, entry.MaxX, entry.MaxY
	ws = append(ws,
		geom.Rect{MinX: x0, MinY: y0, MaxX: x0, MaxY: y0}, // corners
		geom.Rect{MinX: x1, MinY: y0, MaxX: x1, MaxY: y0},
		geom.Rect{MinX: x0, MinY: y1, MaxX: x0, MaxY: y1},
		geom.Rect{MinX: x1, MinY: y1, MaxX: x1, MaxY: y1},
		geom.Rect{MinX: x0, MinY: y0, MaxX: x0, MaxY: y1}, // edges
		geom.Rect{MinX: x1, MinY: y0, MaxX: x1, MaxY: y1},
		geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y0},
		geom.Rect{MinX: x0, MinY: y1, MaxX: x1, MaxY: y1},
	)
	nan := math.NaN()
	for i := 0; i < 4; i++ {
		w := gridRect(rng)
		*[]*float64{&w.MinX, &w.MinY, &w.MaxX, &w.MaxY}[i] = nan
		ws = append(ws, w)
	}
	return append(ws, geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan})
}

// pushSequence runs a best-first search on f around p whose root is read
// by push and returns the items it yields and the nodes it would expand
// next, both in pop order: around a point at infinity every entry ties,
// so pop order is push order.
func pushSequence(f *rtree.Frontier[pageRef], p geom.Point, push func(root pageRef)) ([]rtree.Neighbor, []pageRef) {
	root := pageRef{page: -1}
	var nodes []pageRef
	found, _ := f.BestFirst(nil, p, root, 0, math.Inf(1), func(n pageRef) error {
		if n == root {
			push(root)
		} else {
			nodes = append(nodes, n)
		}
		return nil
	}) // expand never fails, so neither does the search
	return found, nodes
}

// TestScanFrameMatchesDecode: on seeded leaf and internal pages of up to
// a full page of entries, scanFrame returns exactly the entries DecodeNode
// yields that Intersects the window, in entry order — for windows whose
// edges touch entries, degenerate to an entry's corner or edge, infinite,
// inverted or NaN. pushFrame queues the entries DecodeNode yields, in
// the same order, with the same rectangles and payloads. Every case runs
// on the plain path a fault takes and on the grouped path of a hit.
func TestScanFrameMatchesDecode(t *testing.T) {
	for _, hit := range []bool{false, true} {
		t.Run(pathName(hit), func(t *testing.T) { testScanFrameMatchesDecode(t, hit) })
	}
}

func testScanFrameMatchesDecode(t *testing.T, hit bool) {
	rng := rand.New(rand.NewPCG(3401, 3402))
	capacity := NodeCapacity(DefaultPageSize)
	for trial := 0; trial < 200; trial++ {
		leaf := trial%2 == 0
		n := []int{0, 1, capacity}[min(trial/2, 2)]
		if trial >= 6 {
			n = 1 + rng.IntN(capacity)
		}
		frame := randomPage(t, rng, leaf, n)
		nd, err := DecodeNode(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		entry := geom.Rect{}
		if n > 0 {
			entry = nd.Rects[rng.IntN(n)]
		}
		for _, w := range scanWindows(rng, entry) {
			gotLeaf, items, kids := scanPage(frame, w, hit)
			wantItems, wantKids := wantScan(t, frame, w)
			if gotLeaf != leaf || !sameItemBits(items, wantItems) || !slices.Equal(kids, wantKids) {
				t.Fatalf("trial %d (leaf %v, %d entries), window %v:\nscanFrame %v %v\nDecodeNode %v %v",
					trial, leaf, n, w, items, kids, wantItems, wantKids)
			}
		}

		for _, p := range []geom.Point{{X: math.Inf(1), Y: math.Inf(1)}, {X: rng.Float64(), Y: rng.Float64()}} {
			q := &query{pt: frameTree(frame)}
			got, gotNodes := pushSequence(&q.frontier, p, func(root pageRef) {
				q.node = pageRef{0, root.depth} // the frame's page in q.pt's index
				q.pushFrame(frame, hit)
			})
			var f rtree.Frontier[pageRef]
			want, wantNodes := pushSequence(&f, p, func(root pageRef) {
				for i, r := range nd.Rects {
					d, ok := f.Within(r)
					if !ok {
						continue
					}
					if leaf {
						f.PushItemAt(i, d, r, nd.IDs[i])
					} else {
						f.PushNodeAt(i, d, r, pageRef{nd.Children[i], root.depth + 1}, 1)
					}
				}
			})
			if !slices.EqualFunc(got, want, func(a, b rtree.Neighbor) bool {
				return sameItemBits([]rtree.Item{a.Item}, []rtree.Item{b.Item}) && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
			}) || !slices.Equal(gotNodes, wantNodes) {
				t.Fatalf("trial %d (leaf %v, %d entries), around %v:\npushFrame %v %v\nDecodeNode %v %v",
					trial, leaf, n, p, got, gotNodes, want, wantNodes)
			}
			if len(got)+len(gotNodes) != n {
				t.Fatalf("trial %d: %d of %d entries queued", trial, len(got)+len(gotNodes), n)
			}
		}
	}
}

// TestValidatePageEntryBounds pins validatePage's entry loop at its
// ends, through DecodeNode and through a pool fault: an inverted
// rectangle at the first, a middle or the last entry is reported with
// that entry's index, and a count that exactly fills the page is
// accepted while one more is refused.
func TestValidatePageEntryBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3403, 3404))
	capacity := NodeCapacity(DefaultPageSize)
	if nodeHeaderSize+capacity*entrySize != DefaultPageSize {
		t.Fatalf("%d entries do not exactly fill a %d-byte page", capacity, DefaultPageSize)
	}
	full := randomPage(t, rng, true, capacity)
	type tamper struct {
		name string
		f    func(page []byte)
		want string // "" for a page that must be accepted
	}
	cases := []tamper{{name: "full page", f: func([]byte) {}}}
	for _, i := range []int{0, capacity / 2, capacity - 1} {
		cases = append(cases, tamper{
			name: fmt.Sprintf("inverted entry %d", i),
			f: func(b []byte) {
				e := b[nodeHeaderSize+i*entrySize:]
				putFloat(e[8:], getFloat(e[24:])+1) // MinY past MaxY
			},
			want: fmt.Sprintf("entry %d has invalid rect", i),
		})
	}
	cases = append(cases, tamper{
		name: "count past capacity",
		f:    func(b []byte) { binary.LittleEndian.PutUint16(b[2:4], uint16(capacity+1)) },
		want: fmt.Sprintf("claims %d entries beyond page end", capacity+1),
	})

	mem, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for page, tc := range cases {
		buf := slices.Clone(full)
		tc.f(buf)
		restamp(buf)
		if err := mem.WritePage(page, buf); err != nil {
			t.Fatal(err)
		}
	}
	pool := buffer.NewPool(dmSource{mem}, len(cases), len(cases))
	for page, tc := range cases {
		check := func(how string, err error) {
			t.Helper()
			if tc.want == "" && err != nil {
				t.Errorf("%s: %s refused: %v", tc.name, how, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("%s: %s err = %v, want one containing %q", tc.name, how, err, tc.want)
			}
		}
		buf := make([]byte, DefaultPageSize)
		if err := mem.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		nd, err := DecodeNode(buf, page)
		check("DecodeNode", err)
		if err == nil && len(nd.Rects) != capacity {
			t.Errorf("%s: DecodeNode yields %d entries, want %d", tc.name, len(nd.Rects), capacity)
		}
		entries := 0
		_, err = pool.View(page, func(frame []byte, hit bool) {
			_, items, _ := scanPage(frame, everything, hit)
			entries = len(items)
		})
		check("View", err)
		if err == nil && entries != capacity {
			t.Errorf("%s: a scan of the resident frame yields %d entries, want %d", tc.name, entries, capacity)
		}
	}
}

// scanVisit is one page visit of a query: the page and the query's
// window.
type scanVisit struct {
	page int
	w    geom.Rect
}

// scanVisits returns the first 4,096 page visits, in DFS order, that
// point queries (window false) or 0.01² window queries (true) at points
// make on the tree stored in dm.
func scanVisits(tb testing.TB, dm DiskManager, points []geom.Point, window bool) []scanVisit {
	tb.Helper()
	const n = 4096
	visits := make([]scanVisit, 0, n)
	buf := make([]byte, dm.PageSize())
	var walk func(page int, w geom.Rect)
	walk = func(page int, w geom.Rect) {
		if len(visits) == n {
			return
		}
		visits = append(visits, scanVisit{page, w})
		if err := dm.ReadPage(page, buf); err != nil {
			tb.Fatal(err)
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			tb.Fatal(err)
		}
		for i, r := range nd.Rects {
			if !nd.Leaf && r.Intersects(w) {
				walk(nd.Children[i], w)
			}
		}
	}
	for _, p := range points {
		w := geom.PointRect(p)
		if window {
			w = geom.RectAround(p, 0.01, 0.01)
		}
		if walk(0, w); len(visits) == n {
			return visits
		}
	}
	tb.Fatalf("%d queries make only %d visits", len(points), len(visits))
	return nil
}

// BenchmarkScanFrame times one page scan of a query on read_hot's tree
// (packedHotTree's 1M Hilbert-packed items, fan-out 100): each iteration
// takes the next of 4,096 page visits that point queries, or 0.01²
// window queries, make in DFS order, and scans that visit's page with
// the query's window. The pages are the tree's own, so the branch
// pattern is a real one and a page is seldom in the CPU cache, as in a
// pool of 10,101 frames. plain is a fault's scan of every entry; grouped
// is a hit's scan through the page's group MBRs, built before the clock
// starts. Neither allocates: the result scratch is reused across scans,
// as a recycled query's is.
func BenchmarkScanFrame(b *testing.B) {
	pt, points := packedHotTree(b, 1)
	dm := pt.dm
	frames := map[int][]byte{} // page -> its validated frame, one per page
	for _, kind := range []struct {
		name   string
		window bool
	}{{"point", false}, {"window", true}} {
		visits := scanVisits(b, dm, points, kind.window)
		for _, v := range visits {
			if frames[v.page] != nil {
				continue
			}
			frame := make([]byte, dm.PageSize())
			if err := (dmSource{dm}).ReadPage(v.page, frame); err != nil {
				b.Fatal(err)
			}
			frames[v.page] = frame
		}
		for _, hit := range []bool{false, true} {
			b.Run(kind.name+"/"+pathName(hit), func(b *testing.B) {
				q := &query{pt: &PagedTree{index: newPageIndex(dm.NumPages(), dm.PageSize())}, kids: make([][]int, 1)}
				scan := func(v scanVisit) {
					q.window, q.page = v.w, v.page
					q.items, q.kids[0] = q.items[:0], q.kids[0][:0]
					q.scanFrame(frames[v.page], hit)
				}
				for _, v := range visits { // builds the groups, sizes the scratch
					scan(v)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scan(visits[i%len(visits)])
				}
				benchSink += len(q.items) + len(q.kids[0])
			})
		}
	}
}
