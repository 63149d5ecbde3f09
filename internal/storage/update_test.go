package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

const updateTestPageSize = 512 // capacity 12 entries: small fan-out, deep trees

func updateTestParams() rtree.Params {
	return rtree.Params{MaxEntries: 8, MinEntries: 3, Split: rtree.SplitQuadratic}
}

func randomItems(rng *rand.Rand, n int, firstID int64) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64()*100, rng.Float64()*100
		items[i] = rtree.Item{
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3},
			ID:   firstID + int64(i),
		}
	}
	return items
}

// openUpdatable seeds a tree with items via SaveTree and reopens it
// writable over in-memory page and log devices.
func openUpdatable(t *testing.T, items []rtree.Item, bufferPages int) (*MemoryManager, *MemoryManager, *PagedTree) {
	t.Helper()
	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(items)
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, oracle); err != nil {
		t.Fatal(err)
	}
	walDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, rep, err := OpenPagedTreeWAL(dm, walDev, bufferPages)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeededRecovery() {
		t.Fatalf("fresh tree needed recovery: %s", rep.String())
	}
	return dm, walDev, pt
}

func sortedItems(items []rtree.Item) []rtree.Item {
	out := append([]rtree.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// assertQueryEquivalence runs a deterministic set of window queries
// against both trees and requires identical result sets — the bar these
// example-based tests hold every split algorithm to. The stronger claim,
// that under the quadratic and linear splits paged and in-memory updates
// build the very same tree (one split, one descent, one condense order),
// is asserted after every commit by TestTreeOpsDifferential; only under
// SplitRStar, where forced reinsertion stays with the in-memory tree,
// may the two legally differ in shape.
func assertQueryEquivalence(t *testing.T, pt *PagedTree, oracle *rtree.Tree, tag string) {
	t.Helper()
	queries := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30},
		{MinX: 45, MinY: 45, MaxX: 55, MaxY: 55},
		{MinX: 80, MinY: 5, MaxX: 95, MaxY: 20},
		{MinX: 33.3, MinY: 66.6, MaxX: 34.4, MaxY: 67.7},
	}
	for qi, q := range queries {
		got, err := pt.SearchWindow(q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", tag, qi, err)
		}
		want := oracle.SearchWindow(q)
		g, w := sortedItems(got), sortedItems(want)
		if len(g) != len(w) {
			t.Fatalf("%s: query %d: got %d items, oracle has %d", tag, qi, len(g), len(w))
		}
		for i := range g {
			if g[i].ID != w[i].ID || !g[i].Rect.Equal(w[i].Rect) {
				t.Fatalf("%s: query %d: item %d differs: got %+v want %+v", tag, qi, i, g[i], w[i])
			}
		}
	}
}

// assertDurableAndValid checks the committed on-disk state: it reloads
// the tree from the page file alone (no WAL, no pool) and validates
// every structural invariant strictly. It returns the reloaded tree.
func assertDurableAndValid(t *testing.T, dm DiskManager, wantItems int, tag string) *rtree.Tree {
	t.Helper()
	loaded, err := LoadTree(dm)
	if err != nil {
		t.Fatalf("%s: loading committed tree: %v", tag, err)
	}
	if err := rtree.ValidateTreeStrict(loaded); err != nil {
		t.Fatalf("%s: committed tree invalid: %v", tag, err)
	}
	if loaded.Len() != wantItems {
		t.Fatalf("%s: committed tree has %d items, want %d", tag, loaded.Len(), wantItems)
	}
	if rep := Scrub(dm); !rep.Clean() {
		t.Fatalf("%s: scrub not clean: %s", tag, rep.String())
	}
	return loaded
}

func TestPagedTreeInsertMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seed := randomItems(rng, 40, 0)
	dm, _, pt := openUpdatable(t, seed, 16)

	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)

	extra := randomItems(rng, 200, 1000)
	for i, it := range extra {
		if err := pt.Insert(it); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		oracle.Insert(it)
	}
	if got := pt.Meta().Items; got != 240 {
		t.Fatalf("catalog says %d items, want 240", got)
	}
	assertQueryEquivalence(t, pt, oracle, "after inserts")
	assertDurableAndValid(t, dm, 240, "after inserts")
	if pt.Meta().LevelOrder {
		t.Fatal("updated tree still claims level-order layout")
	}
}

func TestPagedTreeDeleteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := randomItems(rng, 250, 0)
	dm, _, pt := openUpdatable(t, seed, 16)

	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)

	// Delete in shuffled order so condense hits many shapes: under-full
	// leaves, cascading eliminations, root shrinks.
	perm := rng.Perm(len(seed))
	for i, pi := range perm[:180] {
		it := seed[pi]
		found, err := pt.Delete(it)
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !found {
			t.Fatalf("delete %d: item %d not found", i, it.ID)
		}
		if !oracle.Delete(it) {
			t.Fatalf("oracle lost item %d", it.ID)
		}
	}
	if got := pt.Meta().Items; got != 70 {
		t.Fatalf("catalog says %d items, want 70", got)
	}
	assertQueryEquivalence(t, pt, oracle, "after deletes")
	assertDurableAndValid(t, dm, 70, "after deletes")

	// Deleting a vanished item must be a no-op that logs nothing.
	blocks := pt.WAL().LogBlocks()
	found, err := pt.Delete(seed[perm[0]])
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted the same item twice")
	}
	if pt.WAL().LogBlocks() != blocks {
		t.Fatal("not-found delete appended to the WAL")
	}
}

func TestPagedTreeMixedWorkloadSurvivesReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seed := randomItems(rng, 60, 0)
	dm, walDev, pt := openUpdatable(t, seed, 12)

	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)

	live := append([]rtree.Item(nil), seed...)
	nextID := int64(5000)
	for op := 0; op < 300; op++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			it := randomItems(rng, 1, nextID)[0]
			nextID++
			if err := pt.Insert(it); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			oracle.Insert(it)
			live = append(live, it)
		} else {
			i := rng.Intn(len(live))
			it := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			found, err := pt.Delete(it)
			if err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			if !found {
				t.Fatalf("op %d: live item %d not found", op, it.ID)
			}
			oracle.Delete(it)
		}
	}
	assertQueryEquivalence(t, pt, oracle, "after mixed ops")
	assertDurableAndValid(t, dm, len(live), "after mixed ops")

	// A clean reopen over the same devices must find nothing to replay
	// and serve identical results.
	pt2, rep, err := OpenPagedTreeWAL(dm, walDev, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeededRecovery() {
		t.Fatalf("clean reopen needed recovery: %s", rep.String())
	}
	assertQueryEquivalence(t, pt2, oracle, "after reopen")

	// ScanLeaves on the updated (non-level-order) layout must still
	// visit exactly the live items.
	got := map[int64]int{}
	if err := pt2.ScanLeaves(func(it rtree.Item) error { got[it.ID]++; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("leaf scan saw %d distinct items, want %d", len(got), len(live))
	}
	for _, it := range live {
		if got[it.ID] != 1 {
			t.Fatalf("leaf scan saw item %d %d times", it.ID, got[it.ID])
		}
	}

	// PinLevels must walk the scattered upper levels without error.
	if err := pt2.PinLevels(len(pt2.Meta().Levels) - 1); err != nil {
		t.Fatalf("pinning upper levels of updated tree: %v", err)
	}
}

func TestPagedTreeGrowsFromSingleItem(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seed := randomItems(rng, 1, 0)
	dm, _, pt := openUpdatable(t, seed, 8)

	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)

	extra := randomItems(rng, 120, 100)
	for _, it := range extra {
		if err := pt.Insert(it); err != nil {
			t.Fatal(err)
		}
		oracle.Insert(it)
	}
	if levels := len(pt.Meta().Levels); levels < 3 {
		t.Fatalf("tree only grew to %d levels; root splits untested", levels)
	}
	assertQueryEquivalence(t, pt, oracle, "after growth")
	assertDurableAndValid(t, dm, 121, "after growth")
}

func TestPagedTreeDrainsToEmptyRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seed := randomItems(rng, 90, 0)
	dm, _, pt := openUpdatable(t, seed, 8)

	for _, it := range seed {
		found, err := pt.Delete(it)
		if err != nil {
			t.Fatalf("deleting item %d: %v", it.ID, err)
		}
		if !found {
			t.Fatalf("item %d vanished early", it.ID)
		}
	}
	if got := pt.Meta().Items; got != 0 {
		t.Fatalf("drained tree claims %d items", got)
	}
	if levels := len(pt.Meta().Levels); levels != 1 {
		t.Fatalf("drained tree has %d levels, want 1 (empty root leaf)", levels)
	}
	out, err := pt.SearchWindow(geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("drained tree still answers %d items", len(out))
	}
	if rep := Scrub(dm); !rep.Clean() {
		t.Fatalf("scrub after drain: %s", rep.String())
	}
	// Refill: freed pages must be reusable.
	refill := randomItems(rng, 50, 9000)
	for _, it := range refill {
		if err := pt.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	assertDurableAndValid(t, dm, 50, "after refill")
}

func TestReadOnlyPagedTreeRejectsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seed := randomItems(rng, 20, 0)
	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)
	dm, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, oracle); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenPagedTree(dm, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Insert(seed[0]); !errors.Is(err, ErrReadOnlyTree) {
		t.Fatalf("Insert on read-only tree: %v", err)
	}
	if _, err := pt.Delete(seed[0]); !errors.Is(err, ErrReadOnlyTree) {
		t.Fatalf("Delete on read-only tree: %v", err)
	}
}

func TestUpdatedMetaRoundTrips(t *testing.T) {
	m := TreeMeta{
		MaxEntries: 16,
		MinEntries: 6,
		Split:      rtree.SplitLinear,
		Items:      12345,
		Levels:     []int{1, 4, 30},
		LevelOrder: false,
		TotalPages: 41,
		Free:       []int{7, 19, 3},
	}
	got, err := decodeMeta(encodeMetaV2(m))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
		t.Fatalf("v2 meta round trip:\n got %+v\nwant %+v", got, m)
	}

	// v1 blobs must decode as level-order with a matching span.
	v1 := TreeMeta{MaxEntries: 8, MinEntries: 3, Items: 99, Levels: []int{1, 9}}
	got, err = decodeMeta(encodeMeta(v1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.LevelOrder || got.TotalPages != 10 || got.PageSpan() != 10 {
		t.Fatalf("v1 meta decoded as %+v", got)
	}
}

// failSyncManager wraps a DiskManager with a switchable Sync failure:
// page and meta writes always succeed, so the only step that can fail
// in a commit is the durability barrier before a checkpoint.
type failSyncManager struct {
	DiskManager
	failSync bool
}

func (f *failSyncManager) Sync() error {
	if f.failSync {
		return errors.New("injected sync failure")
	}
	return nil
}

// Regression: a checkpoint-stage failure after the batch was durably
// committed and fully applied used to surface as an error return from
// Insert, indistinguishable from a pre-commit failure — a caller
// retrying would duplicate the entry. It must return nil and surface
// the warning out of band (CheckpointErr + metrics).
func TestCheckpointFailureDoesNotFailCommittedOperation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := randomItems(rng, 30, 0)
	oracle, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.InsertAll(seed)
	inner, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(inner, oracle); err != nil {
		t.Fatal(err)
	}
	dm := &failSyncManager{DiskManager: inner}
	walDev, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pt.WAL().SetMetrics(NewMetrics(reg))

	extra := randomItems(rng, 3, 1000)
	if err := pt.Insert(extra[0]); err != nil {
		t.Fatalf("baseline Insert: %v", err)
	}
	if pt.CheckpointErr() != nil {
		t.Fatalf("baseline checkpoint failed: %v", pt.CheckpointErr())
	}

	dm.failSync = true
	if err := pt.Insert(extra[1]); err != nil {
		t.Fatalf("Insert with failing checkpoint sync returned %v; the operation committed", err)
	}
	if pt.CheckpointErr() == nil {
		t.Fatal("checkpoint failure not recorded in CheckpointErr")
	}
	if pt.UpdateErr() != nil {
		t.Fatalf("handle poisoned by a checkpoint-stage failure: %v", pt.UpdateErr())
	}
	if got := reg.Counter("storage_wal_checkpoint_failures_total").Value(); got != 1 {
		t.Fatalf("checkpoint failure counter = %d, want 1", got)
	}
	// The operation is durable and fully applied despite the warning.
	assertDurableAndValid(t, inner, len(seed)+2, "after failed checkpoint")

	// Once syncs recover, the next operation checkpoints, truncates the
	// log, and clears the warning.
	dm.failSync = false
	if err := pt.Insert(extra[2]); err != nil {
		t.Fatalf("Insert after sync recovered: %v", err)
	}
	if pt.CheckpointErr() != nil {
		t.Fatalf("checkpoint warning not cleared: %v", pt.CheckpointErr())
	}
	if pt.WAL().LogBlocks() != 0 {
		t.Fatalf("log not truncated after recovered checkpoint (%d live blocks)", pt.WAL().LogBlocks())
	}

	// No duplicate entries: each inserted item appears exactly once.
	got, err := pt.SearchWindow(geom.Rect{MinX: -10, MinY: -10, MaxX: 200, MaxY: 200})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int64]int)
	for _, it := range got {
		counts[it.ID]++
	}
	for _, it := range extra {
		if counts[it.ID] != 1 {
			t.Fatalf("item %d appears %d times, want 1", it.ID, counts[it.ID])
		}
	}
}

func TestFreeListCapLeaksInsteadOfOverflowing(t *testing.T) {
	maxLen := maxFreeListLen(updateTestPageSize, 3)
	// Pages 3..99 are leaked and 100.. free, so the span holds them all.
	m := TreeMeta{Levels: []int{1, 1, 1}, TotalPages: 100}
	for p := 0; p < maxLen+10; p++ {
		m.Free = append(m.Free, 100+p)
		m.TotalPages++
	}
	m.Free = m.Free[:maxLen]
	blob := encodeMetaV2(m)
	if len(blob) > updateTestPageSize-24 {
		t.Fatalf("capped v2 meta is %d bytes; exceeds the %d-byte metadata capacity",
			len(blob), updateTestPageSize-24)
	}
	if _, err := decodeMeta(blob); err != nil {
		t.Fatal(err)
	}
}

// A catalog's free list is trusted by every reader and by the next
// split that allocates from it, and the catalog has no checksum. A list
// naming the root, a page past the span, a page twice, or more pages than
// the span leaves beside the live ones must keep every opener, LoadTree
// and Scrub from using the file: before decodeMeta checked the list, the
// first insert panicked on the root, logged a write past the span, or
// turned a live page into a second parent's child.
func TestOpenRejectsBadFreeList(t *testing.T) {
	items := datagen.Items(datagen.SyntheticRegions(2000, 5))
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 20}, items)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 64)
	if err != nil {
		t.Fatal(err)
	}
	x := rtree.Item{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51}, ID: 1 << 40}
	if err := pt.Insert(x); err != nil { // the catalog is v2 from here on
		t.Fatal(err)
	}
	good, err := openMeta(dm)
	if err != nil {
		t.Fatal(err)
	}
	span := good.PageSpan()
	if good.NumPages() != span || len(good.Free) != 0 {
		t.Fatalf("fixture catalog %+v: want no free or leaked pages", good)
	}
	blank := make([]byte, DefaultPageSize)
	for _, page := range []int{span, span + 1} { // room for the duplicate case
		if err := dm.WritePage(page, blank); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		free  []int
		total int
		want  string
	}{
		{"root", []int{0}, span, "free page 0 outside"},
		{"past-span", []int{1 << 20}, span, "free page 1048576 outside"},
		{"live-page-overcount", []int{5}, span, "1 free pages in a span of"},
		{"duplicate", []int{span, span}, span + 2, fmt.Sprintf("free page %d twice", span)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.Free, bad.TotalPages = tc.free, tc.total
			if err := dm.WriteMeta(encodeMetaV2(bad)); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := dm.WriteMeta(encodeMetaV2(good)); err != nil {
					t.Fatal(err)
				}
			}()
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want one containing %q", what, err, tc.want)
				}
			}
			freshWAL, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = OpenPagedTreeWAL(dm, freshWAL, 64)
			check("OpenPagedTreeWAL", err)
			_, err = OpenPagedTree(dm, 64)
			check("OpenPagedTree", err)
			_, err = LoadTree(dm)
			check("LoadTree", err)
			check("Scrub", Scrub(dm).MetaErr)
		})
	}
	// The good catalog still opens.
	if _, err := LoadTree(dm); err != nil {
		t.Fatal(err)
	}
}

// TestHeightChangeWritesOnlyItsPath: a root split or shrink moves every
// node one level down or up, and the commit must still log only the pages
// on the paths the operation touched — a page does not store its level,
// so no other page has anything to rewrite. (While pages did, every such
// commit dragged the whole tree through the pool into one WAL batch.)
func TestHeightChangeWritesOnlyItsPath(t *testing.T) {
	heap := rtree.MustNew(rtree.Params{MaxEntries: 4, MinEntries: 2, Split: rtree.SplitQuadratic})
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
	var pt *PagedTree
	open := func() {
		t.Helper()
		if pt, _, err = OpenPagedTreeWAL(dm, walDev, 16); err != nil {
			t.Fatal(err)
		}
		// Never truncate the log: its growth over a commit is the batch's
		// page images plus one commit record.
		pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 1 << 30})
	}
	open()

	// commit runs one update on both trees and, if it changed the height,
	// holds the batch it logged to the bound. It returns the height change.
	commit := func(tag string, update func() error) int {
		t.Helper()
		before, blocks := len(pt.Meta().Levels), pt.WAL().LogBlocks()
		if err := update(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		height, live := len(pt.Meta().Levels), pt.Meta().NumPages()
		images := pt.WAL().LogBlocks() - blocks - 1
		if height == before {
			return 0
		}
		if images > 8*(max(height, before)+1) {
			t.Errorf("%s: height %d -> %d logged %d page images, more than the paths it touched can hold", tag, before, height, images)
		}
		if live >= 100 && images*5 > live {
			t.Errorf("%s: height %d -> %d logged %d page images of a %d-page tree", tag, before, height, images, live)
		}
		assertSameTree(t, dm, heap, tag)
		return height - before
	}

	items := randomItems(rand.New(rand.NewSource(19)), 600, 1)
	grew, shrank := 0, 0
	for i, it := range items {
		if commit(fmt.Sprintf("insert %d", i), func() error { heap.Insert(it); return pt.Insert(it) }) > 0 {
			grew++
		}
	}
	open() // a reopened handle derives the same levels from the file
	for i, it := range items {
		d := commit(fmt.Sprintf("delete %d", i), func() error {
			found, err := pt.Delete(it)
			if err == nil && (!found || !heap.Delete(it)) {
				err = errors.New("item not found")
			}
			return err
		})
		if d < 0 {
			shrank++
		}
	}
	if grew < 4 || shrank < 4 {
		t.Errorf("height grew %d times and shrank %d times, want at least 4 of each", grew, shrank)
	}
}

// assertSameTree reloads the committed tree from the page file alone and
// requires it strictly valid, scrub-clean and the very tree heap is.
func assertSameTree(t *testing.T, dm DiskManager, heap *rtree.Tree, tag string) {
	t.Helper()
	loaded := assertDurableAndValid(t, dm, heap.Len(), tag)
	if !reflect.DeepEqual(loaded.Levels(), heap.Levels()) || !reflect.DeepEqual(loaded.Items(), heap.Items()) {
		t.Fatalf("%s: paged and in-memory trees differ: %v vs %v nodes per level", tag, loaded.NodesPerLevel(), heap.NodesPerLevel())
	}
}
