package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/nd"
	"rtreebuf/internal/rtree"
)

// The differential net: one operation stream driven through the
// in-memory tree, a WAL-backed paged tree and a brute-force slice, in
// the style of tidwall's testRandom (SNIPPETS.md). Every query must
// agree across all three; every commit must leave a strictly valid,
// scrub-clean page file of the right size. For the quadratic and linear
// splits the two trees are one algorithm — same split, same descent,
// same condense order — so they must also be the same tree: node for
// node, entry for entry, and kNN tie for tie. Under SplitRStar only the
// split is shared (forced reinsertion and the overlap-minimizing descent
// need whole-tree context the paged updater does not have), so only the
// answers are compared.

var diffAlgorithms = []rtree.SplitAlgorithm{rtree.SplitQuadratic, rtree.SplitLinear, rtree.SplitRStar}

// diffRig holds the three implementations and the devices under the
// paged one. The paged tree always runs over FaultManagers wrapping the
// raw devices, so a crash can be armed at any time and a reopen is a
// fresh pair of wrappers over the media that survived.
type diffRig struct {
	t          testing.TB
	alg        rtree.SplitAlgorithm
	heap       *rtree.Tree
	live       []rtree.Item // the brute-force oracle
	dm, walDev *MemoryManager
	fdm, fwal  *FaultManager
	pt         *PagedTree
	buffer     int // pool capacity in pages
	nextID     int64
	ops        int

	crashCommitted, crashRolledBack int // outcomes of crash ops
}

func newDiffRig(t testing.TB, alg rtree.SplitAlgorithm) *diffRig {
	t.Helper()
	return newDiffRigBuffer(t, alg, crashBufferPages)
}

// newDiffRigBuffer is newDiffRig with the paged tree's buffer capacity
// chosen: below the tree height, every descent evicts the page it came
// from.
func newDiffRigBuffer(t testing.TB, alg rtree.SplitAlgorithm, bufferPages int) *diffRig {
	t.Helper()
	p := updateTestParams()
	p.Split = alg
	heap, err := rtree.New(p)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, heap); err != nil {
		t.Fatal(err)
	}
	walDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	r := &diffRig{t: t, alg: alg, heap: heap, dm: dm, walDev: walDev, buffer: bufferPages}
	if rep := r.open(); rep.NeededRecovery() {
		t.Fatalf("fresh tree needed recovery: %s", rep.String())
	}
	return r
}

func (r *diffRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%v op %d: %s", r.alg, r.ops, fmt.Sprintf(format, args...))
}

// open (re)opens the paged tree over fresh fault wrappers, running
// recovery.
func (r *diffRig) open() RecoveryReport {
	r.t.Helper()
	r.fdm, r.fwal = NewFaultManager(r.dm, 1), NewFaultManager(r.walDev, 1)
	pt, rep, err := OpenPagedTreeWAL(r.fdm, r.fwal, r.buffer)
	if err != nil {
		r.fatalf("open: %v (report: %s)", err, rep.String())
	}
	r.pt = pt
	return rep
}

// structural reports whether the paged and in-memory trees must be the
// same tree, not merely answer alike.
func (r *diffRig) structural() bool { return r.alg != rtree.SplitRStar }

func (r *diffRig) newItem(rect geom.Rect) rtree.Item {
	r.nextID++
	return rtree.Item{Rect: rect, ID: r.nextID}
}

func (r *diffRig) applyInsert(it rtree.Item) {
	r.heap.Insert(it)
	r.live = append(r.live, it)
}

func (r *diffRig) applyDelete(i int) {
	if !r.heap.Delete(r.live[i]) {
		r.fatalf("in-memory tree lost item %d", r.live[i].ID)
	}
	r.live = append(r.live[:i], r.live[i+1:]...)
}

func (r *diffRig) insert(rect geom.Rect) {
	r.ops++
	it := r.newItem(rect)
	if err := r.pt.Insert(it); err != nil {
		r.fatalf("paged insert: %v", err)
	}
	r.applyInsert(it)
	r.checkCommitted()
}

// delete removes live[i mod len]; on an empty set it deletes an item no
// tree holds, which must be a no-op everywhere.
func (r *diffRig) delete(i int) {
	r.ops++
	if len(r.live) == 0 {
		ghost := rtree.Item{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, ID: -1}
		found, err := r.pt.Delete(ghost)
		if err != nil || found || r.heap.Delete(ghost) {
			r.fatalf("deleting from empty trees: paged found=%v err=%v", found, err)
		}
		return
	}
	i %= len(r.live)
	found, err := r.pt.Delete(r.live[i])
	if err != nil || !found {
		r.fatalf("paged delete of item %d: found=%v err=%v", r.live[i].ID, found, err)
	}
	r.applyDelete(i)
	r.checkCommitted()
}

func (r *diffRig) reopen() {
	r.ops++
	if rep := r.open(); rep.NeededRecovery() {
		r.fatalf("clean reopen needed recovery: %s", rep.String())
	}
	r.checkCommitted()
}

// crash arms a fail-stop crash at the k-th write (0-based) of one device,
// runs one update into it, reopens the surviving media through recovery,
// and mirrors the update into the other two implementations iff it
// committed — the catalog's item count says which side of the commit
// point the crash fell on.
func (r *diffRig) crash(k int, onWAL, insert bool, rect geom.Rect, delIdx int) {
	r.ops++
	if !insert && len(r.live) == 0 {
		insert = true
	}
	victim := r.fdm
	if onWAL {
		victim = r.fwal
	}
	victim.CrashAfterWrites(int(victim.Writes()) + k)

	before := len(r.live)
	var it rtree.Item
	var err error
	if insert {
		it = r.newItem(rect)
		err = r.pt.Insert(it)
	} else {
		delIdx %= len(r.live)
		_, err = r.pt.Delete(r.live[delIdx])
	}
	if err != nil && !victim.Crashed() {
		r.fatalf("update failed without a crash: %v", err)
	}
	r.open()
	committed := r.pt.Meta().Items != before
	if err == nil && !committed {
		r.fatalf("update reported success but recovery rolled it back")
	}
	if committed {
		r.crashCommitted++
		if insert {
			r.applyInsert(it)
		} else {
			r.applyDelete(delIdx)
		}
	} else {
		r.crashRolledBack++
	}
	r.checkCommitted()
}

// checkCommitted inspects the page file alone — no WAL, no pool — after
// a commit: strictly valid, scrub-clean, the right size, and for the
// shared-algorithm splits the very tree the in-memory side built.
func (r *diffRig) checkCommitted() {
	r.t.Helper()
	loaded, err := LoadTree(r.dm)
	if err != nil {
		r.fatalf("loading committed tree: %v", err)
	}
	if err := rtree.ValidateTreeStrict(loaded); err != nil {
		r.fatalf("committed tree invalid: %v", err)
	}
	if rep := Scrub(r.dm); !rep.Clean() {
		r.fatalf("scrub not clean: %s", rep.String())
	}
	if loaded.Len() != len(r.live) || r.heap.Len() != len(r.live) || r.pt.Meta().Items != len(r.live) {
		r.fatalf("sizes differ: page file %d, in-memory %d, catalog %d, oracle %d",
			loaded.Len(), r.heap.Len(), r.pt.Meta().Items, len(r.live))
	}
	if !r.structural() {
		return
	}
	if !reflect.DeepEqual(loaded.Levels(), r.heap.Levels()) {
		r.fatalf("paged and in-memory trees differ in shape:\npaged     %v\nin-memory %v",
			loaded.NodesPerLevel(), r.heap.NodesPerLevel())
	}
	if !reflect.DeepEqual(loaded.Items(), r.heap.Items()) {
		r.fatalf("paged and in-memory trees hold their entries in different order")
	}
}

// bruteDistances is the oracle's kNN answer: the distance from p to
// every item's rectangle, ascending.
func bruteDistances(items []rtree.Item, p geom.Point) []float64 {
	dists := make([]float64, len(items))
	for i, it := range items {
		dx := math.Max(math.Max(it.Rect.MinX-p.X, 0), p.X-it.Rect.MaxX)
		dy := math.Max(math.Max(it.Rect.MinY-p.Y, 0), p.Y-it.Rect.MaxY)
		dists[i] = math.Sqrt(dx*dx + dy*dy)
	}
	sort.Float64s(dists)
	return dists
}

func itemIDs(items []rtree.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

// brute is the oracle's answer: every live item whose rectangle matches.
func (r *diffRig) brute(match func(geom.Rect) bool) []rtree.Item {
	var out []rtree.Item
	for _, it := range r.live {
		if match(it.Rect) {
			out = append(out, it)
		}
	}
	return out
}

func (r *diffRig) window(q geom.Rect) {
	r.ops++
	got, err := r.pt.SearchWindow(q)
	if err != nil {
		r.fatalf("paged window %v: %v", q, err)
	}
	mem := r.heap.SearchWindow(q)
	want := r.brute(q.Intersects)
	if !sameIDs(got, want) || !sameIDs(mem, want) {
		r.fatalf("window %v: paged %d items, in-memory %d, brute force %d", q, len(got), len(mem), len(want))
	}
	if r.structural() && !reflect.DeepEqual(itemIDs(got), itemIDs(mem)) {
		r.fatalf("window %v: same items in different DFS order", q)
	}
}

func (r *diffRig) point(p geom.Point) {
	r.ops++
	got, err := r.pt.SearchPoint(p)
	if err != nil {
		r.fatalf("paged point %v: %v", p, err)
	}
	want := r.brute(func(rect geom.Rect) bool { return rect.ContainsPoint(p) })
	if !sameIDs(got, want) || !sameIDs(r.heap.SearchPoint(p), want) {
		r.fatalf("point %v: paged %d items, brute force %d", p, len(got), len(want))
	}
}

func (r *diffRig) nearest(p geom.Point, k int) {
	r.ops++
	got, err := r.pt.Nearest(p, k)
	if err != nil {
		r.fatalf("paged kNN %v k=%d: %v", p, k, err)
	}
	mem := r.heap.Nearest(p, k)
	brute := bruteDistances(r.live, p)
	if len(brute) > k {
		brute = brute[:k]
	}
	if len(got) != len(brute) || len(mem) != len(brute) {
		r.fatalf("kNN %v k=%d: paged %d, in-memory %d, brute force %d", p, k, len(got), len(mem), len(brute))
	}
	for i, want := range brute {
		if math.Abs(got[i].Dist-want) > 1e-12 || math.Abs(mem[i].Dist-want) > 1e-12 {
			r.fatalf("kNN %v k=%d neighbor %d: paged %g, in-memory %g, brute force %g",
				p, k, i, got[i].Dist, mem[i].Dist, want)
		}
		if r.structural() && got[i].Item.ID != mem[i].Item.ID {
			r.fatalf("kNN %v k=%d neighbor %d: paged item %d, in-memory item %d (same queue, same tree: ties must fall alike)",
				p, k, i, got[i].Item.ID, mem[i].Item.ID)
		}
	}
}

// packed checks the third tree: the read-only N-D tree, packed over the
// current item set at two dimensions, answers windows like brute force.
func (r *diffRig) packed(windows []geom.Rect) {
	r.t.Helper()
	items := make([]nd.Item, len(r.live))
	for i, it := range r.live {
		items[i] = nd.Item{ID: it.ID, Rect: nd.Rect{
			Min: nd.Point{it.Rect.MinX, it.Rect.MinY},
			Max: nd.Point{it.Rect.MaxX, it.Rect.MaxY},
		}}
	}
	tr, err := nd.Pack(nd.Params{Dims: 2, MaxEntries: 8}, items, nd.HilbertOrdering(2))
	if err != nil {
		r.fatalf("nd.Pack: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		r.fatalf("packed tree invalid: %v", err)
	}
	for _, q := range windows {
		var got []rtree.Item
		for _, it := range tr.SearchWindow(nd.Rect{Min: nd.Point{q.MinX, q.MinY}, Max: nd.Point{q.MaxX, q.MaxY}}) {
			got = append(got, rtree.Item{ID: it.ID})
		}
		if want := r.brute(q.Intersects); !sameIDs(got, want) {
			r.fatalf("packed N-D tree, window %v: %d items, brute force %d", q, len(got), len(want))
		}
	}
}

// TestTreeOpsDifferential is the fixed-seed run of the net: a growth
// phase deep enough for internal splits, a mixed phase, and a shrink
// phase that condenses the tree back through root shrinks.
func TestTreeOpsDifferential(t *testing.T) {
	type run struct {
		name   string
		alg    rtree.SplitAlgorithm
		buffer int
	}
	var runs []run
	for _, alg := range diffAlgorithms {
		runs = append(runs, run{alg.String(), alg, crashBufferPages})
	}
	// Once more under a buffer smaller than the tree grows tall: every
	// child read evicts its parent, in queries and in updates alike.
	runs = append(runs, run{"2-page-buffer", rtree.SplitQuadratic, 2})
	for _, cfg := range runs {
		t.Run(cfg.name, func(t *testing.T) {
			alg := cfg.alg
			rng := rand.New(rand.NewSource(1600 + int64(alg)))
			r := newDiffRigBuffer(t, alg, cfg.buffer)
			// A third of the rectangles sit on an integer grid as points,
			// so equal rectangles, zero areas and kNN distance ties occur.
			rect := func() geom.Rect {
				if rng.Intn(3) == 0 {
					x, y := float64(rng.Intn(20)*5), float64(rng.Intn(20)*5)
					return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
				}
				x, y := rng.Float64()*100, rng.Float64()*100
				return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3}
			}
			window := func() geom.Rect {
				x, y := rng.Float64()*100, rng.Float64()*100
				return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*25, MaxY: y + rng.Float64()*25}
			}
			point := func() geom.Point {
				if rng.Intn(2) == 0 {
					return geom.Point{X: float64(rng.Intn(20) * 5), Y: float64(rng.Intn(20) * 5)}
				}
				return geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			}
			// insertBias of 10 draws is the share of updates that insert.
			phase := func(ops, insertBias int) {
				for i := 0; i < ops; i++ {
					switch c := rng.Intn(20); {
					case c < 12:
						if rng.Intn(10) < insertBias {
							r.insert(rect())
						} else {
							r.delete(rng.Intn(1 << 20))
						}
					case c < 14:
						r.window(window())
					case c < 15:
						r.point(point())
					case c < 17:
						r.nearest(point(), 1+rng.Intn(12))
					case c < 18:
						r.reopen()
					default:
						r.crash(rng.Intn(8), rng.Intn(2) == 0, rng.Intn(10) < insertBias, rect(), rng.Intn(1<<20))
					}
				}
			}
			phase(500, 9)
			if h := r.heap.Height(); h < 3 {
				t.Fatalf("tree height %d after growth: internal splits not exercised", h)
			}
			phase(300, 5)
			r.packed([]geom.Rect{window(), window(), window(), {MinX: -1, MinY: -1, MaxX: 101, MaxY: 104}})
			phase(500, 1)
			if r.crashCommitted == 0 || r.crashRolledBack == 0 {
				t.Fatalf("crash ops saw %d commits and %d rollbacks: commit point not straddled",
					r.crashCommitted, r.crashRolledBack)
			}
			for len(r.live) > 0 {
				r.delete(rng.Intn(1 << 20))
			}
			if r.heap.Height() != 1 || len(r.pt.Meta().Levels) != 1 {
				t.Fatalf("emptied trees kept height %d / %d levels", r.heap.Height(), len(r.pt.Meta().Levels))
			}
		})
	}
}

// FuzzTreeOps is the same net driven by op bytes: the first byte picks
// the split algorithm, then each op is one opcode byte followed by its
// operands. Coordinates come from a coarse grid, so the fuzzer reaches
// duplicate rectangles, degenerate areas and distance ties quickly.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 10, 10, 0x22, 4, 0, 0, 0xff, 5, 10, 10, 3, 6, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 7, 0, 1, 1, 9, 9, 0x11, 0, 7, 3, 0, 0, 0, 0, 0, 3, 0})
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 900)
		rng.Read(data)
		data[0] = byte(seed)
		// Lean toward inserts so the seed corpus grows trees tall enough
		// to split internal nodes and condense them again.
		for i := 1; i < 600; i += 4 {
			data[i] = 0
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := newDiffRig(t, diffAlgorithms[int(data[0])%len(diffAlgorithms)])
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		coord := func() float64 { return float64(next()) / 4 }
		rect := func() geom.Rect {
			x, y, wh := coord(), coord(), next()
			return geom.Rect{MinX: x, MinY: y, MaxX: x + float64(wh&0x0f)/2, MaxY: y + float64(wh>>4)/2}
		}
		var windows []geom.Rect
		for r.ops < 300 && len(data) > 0 {
			switch next() % 8 {
			case 0, 1, 2:
				r.insert(rect())
			case 3:
				r.delete(int(next()))
			case 4:
				q := rect()
				q.MaxX, q.MaxY = q.MaxX+4, q.MaxY+4
				windows = append(windows, q)
				r.window(q)
			case 5:
				p := geom.Point{X: coord(), Y: coord()}
				r.point(p)
				r.nearest(p, 1+int(next())%10)
			case 6:
				r.reopen()
			case 7:
				how := next()
				r.crash(int(how&7), how&8 != 0, how&16 != 0, rect(), int(next()))
			}
		}
		r.packed(windows)
	})
}

// TestSplitParityHeapVsPaged pins the claim the whole net rests on: the
// same overflowing node splits into the same two groups, in the same
// entry order, whether it is a linked node of the in-memory tree
// (Tree.split, reached by overflowing a root leaf) or a staged page of
// the paged tree (splitChild) — for every algorithm, R* included.
func TestSplitParityHeapVsPaged(t *testing.T) {
	for _, alg := range diffAlgorithms {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := updateTestParams()
			p.Split = alg
			items := randomItems(rng, p.MaxEntries+1, 1)

			heap := rtree.MustNew(p)
			heap.InsertAll(items) // the last insert overflows the root leaf
			nodes := heap.ExportNodes()
			if len(nodes) != 3 {
				t.Fatalf("%v seed %d: %d nodes after one root split, want 3", alg, seed, len(nodes))
			}

			u := &updater{
				pageSize: updateTestPageSize,
				meta:     TreeMeta{MaxEntries: p.MaxEntries, MinEntries: p.MinEntries, Split: alg, Levels: []int{1, 1}, TotalPages: 2},
			}
			parentImg := u.newNode(0, false)
			nImg := u.newNode(1, true)
			for _, it := range items {
				nImg.add(it.Rect, uint64(it.ID))
			}
			parentImg.add(nImg.mbr(), uint64(nImg.page))
			u.splitChild(nImg, parentImg, 1)
			sibImg := u.lookup(parentImg.child(1))
			n, parent, sib := stagedNode(t, u, nImg), stagedNode(t, u, parentImg), stagedNode(t, u, sibImg)

			if !reflect.DeepEqual(n.IDs, nodes[1].IDs) || !reflect.DeepEqual(sib.IDs, nodes[2].IDs) {
				t.Errorf("%v seed %d: groups differ\nin-memory %v | %v\npaged     %v | %v",
					alg, seed, nodes[1].IDs, nodes[2].IDs, n.IDs, sib.IDs)
			}
			if !reflect.DeepEqual(parent.Rects, nodes[0].Rects) {
				t.Errorf("%v seed %d: parent rectangles differ: in-memory %v, paged %v",
					alg, seed, nodes[0].Rects, parent.Rects)
			}
		}
	}
}

// stagedNode finishes a staged image as a commit would and decodes it.
func stagedNode(t *testing.T, u *updater, n *stagedPage) rtree.NodeData {
	t.Helper()
	img := n.img[:u.pageSize]
	finishPage(img, n.leaf(), n.count())
	nd, err := DecodeNode(img, n.page)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}
