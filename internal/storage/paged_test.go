package storage

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

func pagedFixture(t *testing.T, n, capacity, bufferPages int) (*rtree.Tree, *PagedTree) {
	t.Helper()
	tr := buildTestTree(t, n, capacity)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenPagedTree(dm, bufferPages)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pt
}

func TestPagedTreeSearchMatchesInMemory(t *testing.T) {
	tr, pt := pagedFixture(t, 1200, 16, 50)
	rng := rand.New(rand.NewPCG(501, 502))
	for i := 0; i < 100; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()},
			rng.Float64()*0.2, rng.Float64()*0.2)
		got, err := pt.SearchWindow(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, tr.SearchWindow(q)) {
			t.Fatalf("paged search mismatch for %v", q)
		}
	}
	// Point search too.
	p := geom.Point{X: 0.5, Y: 0.5}
	got, err := pt.SearchPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, tr.SearchPoint(p)) {
		t.Fatal("paged point search mismatch")
	}
}

func TestPagedTreeCountsMisses(t *testing.T) {
	_, pt := pagedFixture(t, 1200, 16, 10)
	rng := rand.New(rand.NewPCG(503, 504))
	for i := 0; i < 200; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.05, 0.05)
		if _, err := pt.SearchWindow(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := pt.Pool().Stats()
	if misses == 0 {
		t.Error("no misses with a 10-page buffer — accounting broken")
	}
	if hits == 0 {
		t.Error("no hits at all — the root should hit after warm-up")
	}
	if pt.Pool().Resident() > 10 {
		t.Errorf("resident %d exceeds capacity", pt.Pool().Resident())
	}
}

func TestPagedTreeBigBufferStopsMissing(t *testing.T) {
	_, pt := pagedFixture(t, 1200, 16, 4096)
	rng := rand.New(rand.NewPCG(505, 506))
	run := func(queries int) uint64 {
		pt.Pool().ResetStats()
		for i := 0; i < queries; i++ {
			q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.1, 0.1)
			if _, err := pt.SearchWindow(q); err != nil {
				t.Fatal(err)
			}
		}
		_, misses, _ := pt.Pool().Stats()
		return misses
	}
	run(500) // warm up: faults in every touched page once
	if again := run(500); again != 0 {
		t.Errorf("buffer larger than tree still missed %d times at steady state", again)
	}
}

func TestPagedTreePinLevels(t *testing.T) {
	tr, pt := pagedFixture(t, 1200, 16, 100)
	meta := pt.Meta()
	if meta.Items != tr.Len() {
		t.Errorf("meta items = %d", meta.Items)
	}
	if err := pt.PinLevels(2); err != nil {
		t.Fatal(err)
	}
	// Pinned pages resident.
	lo, hi := meta.LevelPageRange(1)
	if hi-lo != meta.Levels[1] {
		t.Errorf("level 1 page range %d..%d", lo, hi)
	}
	// Invalid pin depths rejected.
	if err := pt.PinLevels(-1); err == nil {
		t.Error("negative pin accepted")
	}
	if err := pt.PinLevels(len(meta.Levels) + 1); err == nil {
		t.Error("too-deep pin accepted")
	}
}

// TestPinLevelsZeroPinsNothing: PinLevels(0) leaves the buffer as it
// was, on a level-order tree and on an updated one, whose walk starts at
// the root but must not pin it. Page 0 is evicted like any other page.
func TestPinLevelsZeroPinsNothing(t *testing.T) {
	for _, walked := range []bool{false, true} {
		t.Run(fmt.Sprintf("walked=%v", walked), func(t *testing.T) {
			dm, _ := evictionFixture(t, walked)
			pt, err := OpenPagedTree(dm, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.PinLevels(0); err != nil {
				t.Fatal(err)
			}
			pool := pt.Pool()
			if n := pool.Resident(); n != 0 {
				t.Errorf("PinLevels(0) left %d pages resident", n)
			}
			view := func(page int) bool {
				t.Helper()
				info, err := pool.View(page, func([]byte, bool) {})
				if err != nil {
					t.Fatal(err)
				}
				return info.Hit
			}
			for page := 1; page < 40; page++ {
				view(page)
			}
			if view(0) {
				t.Error("page 0 still hits after 39 other pages through an 8-page buffer: PinLevels(0) pinned it")
			}
		})
	}
}

func TestPagedTreePinBeyondBuffer(t *testing.T) {
	_, pt := pagedFixture(t, 1200, 8, 4) // many leaves, tiny buffer
	err := pt.PinLevels(len(pt.Meta().Levels))
	if err == nil {
		t.Error("pinning the whole tree into a 4-page buffer succeeded")
	}
}

func TestPagedTreeNearestMatchesInMemory(t *testing.T) {
	tr, pt := pagedFixture(t, 1500, 16, 60)
	rng := rand.New(rand.NewPCG(601, 602))
	for i := 0; i < 60; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		k := 1 + rng.IntN(12)
		got, err := pt.Nearest(p, k)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Nearest(p, k)
		if len(got) != len(want) {
			t.Fatalf("paged kNN returned %d, in-memory %d", len(got), len(want))
		}
		// Same queue, same total order, same entry order in every node:
		// equidistant items come back in the same order too.
		for j := range got {
			if got[j].Item.ID != want[j].Item.ID {
				t.Fatalf("neighbor %d: paged ID %d, in-memory %d", j, got[j].Item.ID, want[j].Item.ID)
			}
			if diff := got[j].Dist - want[j].Dist; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("neighbor %d: paged dist %g, in-memory %g", j, got[j].Dist, want[j].Dist)
			}
		}
	}
	// Buffered kNN reads far fewer pages than the tree holds.
	pt.Pool().ResetStats()
	if _, err := pt.Nearest(geom.Point{X: 0.5, Y: 0.5}, 5); err != nil {
		t.Fatal(err)
	}
	_, misses, _ := pt.Pool().Stats()
	if int(misses) >= pt.Meta().NumPages()/2 {
		t.Errorf("kNN missed %d of %d pages — pruning broken?", misses, pt.Meta().NumPages())
	}
	// k <= 0 yields nothing.
	if got, err := pt.Nearest(geom.Point{X: 0.5, Y: 0.5}, 0); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
}

func TestScanLeaves(t *testing.T) {
	tr, pt := pagedFixture(t, 1000, 16, 30)
	var scanned []rtree.Item
	if err := pt.ScanLeaves(func(it rtree.Item) error {
		scanned = append(scanned, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != tr.Len() {
		t.Fatalf("scan returned %d of %d items", len(scanned), tr.Len())
	}
	if !sameIDs(scanned, tr.Items()) {
		t.Fatal("scan item set mismatch")
	}
	// The scan reads exactly the leaf pages (after reset, on a cold-ish
	// pool that is mostly evicted by the scan itself).
	pt.Pool().ResetStats()
	if err := pt.ScanLeaves(func(rtree.Item) error { return nil }); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := pt.Pool().Stats()
	leafPages := pt.Meta().Levels[len(pt.Meta().Levels)-1]
	if int(hits+misses) != leafPages {
		t.Errorf("scan accessed %d pages, want %d leaf pages", hits+misses, leafPages)
	}
	// Visitor errors propagate.
	sentinel := fmt.Errorf("stop")
	if err := pt.ScanLeaves(func(rtree.Item) error { return sentinel }); err != sentinel {
		t.Errorf("visitor error = %v", err)
	}
}

func TestOpenPagedTreeErrors(t *testing.T) {
	dm, _ := NewMemoryManager(DefaultPageSize)
	if _, err := OpenPagedTree(dm, 10); err == nil {
		t.Error("paged tree over empty manager opened")
	}
}

// TestOpenRejectsBufferBelowOnePage: a buffer of fewer than one page is
// an error that names the size, from every opener and at every shard
// count, never a panic in the pool; the WAL opener rejects it before it
// writes the log.
func TestOpenRejectsBufferBelowOnePage(t *testing.T) {
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, buildTestTree(t, 300, 16)); err != nil {
		t.Fatal(err)
	}
	for _, pages := range []int{0, -1} {
		for _, shards := range []int{1, 4} {
			checkOpenError(t, fmt.Sprintf("OpenPagedTreeWith(%d pages, %d shards)", pages, shards), pages, func() error {
				_, err := OpenPagedTreeWith(dm, pages, "", shards)
				return err
			})
		}
		walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
		if err != nil {
			t.Fatal(err)
		}
		checkOpenError(t, fmt.Sprintf("OpenPagedTreeWAL(%d pages)", pages), pages, func() error {
			_, _, err := OpenPagedTreeWAL(dm, walDev, pages)
			return err
		})
		if meta, _ := walDev.ReadMeta(); len(meta) != 0 || walDev.NumPages() != 0 {
			t.Errorf("OpenPagedTreeWAL(%d pages) wrote the log before rejecting the buffer", pages)
		}
	}
}

// checkOpenError fails t unless open returns an error naming a buffer of
// pages pages; a panic fails it too.
func checkOpenError(t *testing.T, call string, pages int, open func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", call, r)
		}
	}()
	if err := open(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d pages", pages)) {
		t.Errorf("%s: error %v, want one naming %d pages", call, err, pages)
	}
}

// OpenPagedTreeWith must return the same query answers for every
// replacement policy and shard count — only the hit/miss pattern may
// change — and reject unknown policy names.
func TestOpenPagedTreeWithPoliciesAndShards(t *testing.T) {
	tr := buildTestTree(t, 1200, 16)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedTreeWith(dm, 20, "bogus", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	queries := func(pt *PagedTree) {
		t.Helper()
		rng := rand.New(rand.NewPCG(511, 512))
		for i := 0; i < 60; i++ {
			q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.05, 0.05)
			got, err := pt.SearchWindow(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got, tr.SearchWindow(q)) {
				t.Fatalf("search mismatch for %v", q)
			}
		}
	}
	for _, policy := range []string{"", "lru", "clock", "2q", "clockpro"} {
		for _, shards := range []int{1, 4} {
			pt, err := OpenPagedTreeWith(dm, 20, policy, shards)
			if err != nil {
				t.Fatalf("%s/%d: %v", policy, shards, err)
			}
			queries(pt)
			hits, misses, _ := pt.Pool().Stats()
			if hits == 0 || misses == 0 {
				t.Errorf("%s/%d: degenerate stats hits=%d misses=%d", policy, shards, hits, misses)
			}
			if r := pt.Pool().Resident(); r > 20 {
				t.Errorf("%s/%d: resident %d exceeds capacity", policy, shards, r)
			}
		}
	}
}
