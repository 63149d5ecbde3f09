package storage

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// checkFullWindow runs a full-window search on pt and compares it with
// brute force: every item of want, each once.
func checkFullWindow(t *testing.T, pt *PagedTree, want []rtree.Item, tag string) {
	t.Helper()
	if got := allStoredItems(t, pt, tag); !sameItems(got, sortedItems(want)) {
		t.Fatalf("%s: full-window search finds %d items, brute force %d", tag, len(got), len(want))
	}
}

// TestInsertRejectsInvalidRect: a rectangle with a NaN or inverted
// bounds is refused by Insert, before anything is staged, logged or
// written, and the handle stays usable. Were it written, the root's
// covering rectangle would hold the NaN and every read of page 0 after
// its eviction, and after a reopen, would fail validatePage. The buffer
// holds two pages, so a full-window search evicts page 0. The heap tree
// refuses the NaN too, and the page encoder under SaveTree refuses a node
// that holds one for the same reason.
func TestInsertRejectsInvalidRect(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(45)), 60, 0)
	dm, walDev, pt := openUpdatable(t, items, 2)
	if n := dm.NumPages(); n <= 2 {
		t.Fatalf("fixture has %d pages; a two-page buffer must evict page 0", n)
	}
	blocks := pt.WAL().LogBlocks()
	for _, r := range []geom.Rect{
		{MinX: math.NaN(), MinY: 1, MaxX: 2, MaxY: 2},
		{MinX: 5, MinY: 5, MaxX: 4, MaxY: 6},
	} {
		if err := pt.Insert(rtree.Item{Rect: r, ID: 1000}); err == nil {
			t.Fatalf("Insert(%v) accepted an invalid rect", r)
		}
	}
	if pt.UpdateErr() != nil || pt.WAL().LogBlocks() != blocks {
		t.Fatalf("a refused Insert poisoned the handle (%v) or logged (%d -> %d blocks)",
			pt.UpdateErr(), blocks, pt.WAL().LogBlocks())
	}
	valid := rtree.Item{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, ID: 1001}
	if err := pt.Insert(valid); err != nil {
		t.Fatal(err)
	}
	items = append(items, valid)
	checkFullWindow(t, pt, items, "first search")
	checkFullWindow(t, pt, items, "after page 0 was evicted")

	reopened, _, err := OpenPagedTreeWAL(dm, walDev, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkFullWindow(t, reopened, items, "after reopen")

	heap, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.InsertAll(items); err != nil {
		t.Fatal(err)
	}
	nan := rtree.Item{Rect: geom.Rect{MinX: math.NaN(), MinY: 1, MaxX: 2, MaxY: 2}, ID: 1002}
	if err := heap.Insert(nan); err == nil {
		t.Fatal("the heap tree accepted a NaN rect")
	}
	leaf := rtree.NodeData{Leaf: true, Rects: []geom.Rect{items[0].Rect, nan.Rect}, IDs: []int64{items[0].ID, nan.ID}}
	if _, err := EncodeNode(leaf, updateTestPageSize); err == nil {
		t.Fatal("EncodeNode wrote a node that holds a NaN")
	}
}

// TestPoisonedHandleRefusesQueries: a commit whose write-back fails
// after the WAL append poisons the handle. Its pool may then hold some
// of the batch's pages while the others, and the catalog, are old, so
// every query fails with an error wrapping UpdateErr instead of reading
// that mix; a degraded search reports page 0 with that error. A reopen
// recovers the batch from the log.
func TestPoisonedHandleRefusesQueries(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(46)), 60, 0)
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
	fdm := NewFaultManager(dm, 1)
	pt, _, err := OpenPagedTreeWAL(fdm, walDev, 64)
	if err != nil {
		t.Fatal(err)
	}
	checkFullWindow(t, pt, items, "before the failure")

	fdm.FailEveryNthWrite(1) // every page-file write fails from here on
	extra := rtree.Item{Rect: geom.Rect{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}, ID: 1000}
	if err := pt.Insert(extra); err == nil {
		t.Fatal("Insert succeeded with every page write failing")
	}
	poison := pt.UpdateErr()
	if poison == nil {
		t.Fatal("a write-back failure after the WAL append did not poison the handle")
	}
	check := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, poison) {
			t.Errorf("%s on a poisoned handle: err = %v, want one wrapping %v", call, err, poison)
		}
	}
	_, err = pt.SearchWindow(everything)
	check("SearchWindow", err)
	_, err = pt.SearchPoint(geom.Point{X: 50.5, Y: 50.5})
	check("SearchPoint", err)
	_, err = pt.Nearest(geom.Point{X: 50.5, Y: 50.5}, 3)
	check("Nearest", err)
	check("ScanLeaves", pt.ScanLeaves(func(rtree.Item) error { return nil }))
	if _, rep := pt.SearchWindowDegraded(everything); len(rep.Faults) != 1 || rep.Faults[0].Page != 0 || !errors.Is(rep.Faults[0].Err, poison) {
		t.Errorf("SearchWindowDegraded on a poisoned handle reports %+v, want page 0 with the poison error", rep.Faults)
	}

	reopened, rep, err := OpenPagedTreeWAL(dm, walDev, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NeededRecovery() {
		t.Error("reopen found nothing to recover")
	}
	checkFullWindow(t, reopened, append(items, extra), "after reopen")
}

// failOnceManager fails the first write issued after armed is set, and
// counts the writes that reach it after that failure.
type failOnceManager struct {
	DiskManager
	armed, failed bool
	after         int
}

func (f *failOnceManager) write(do func() error) error {
	if f.failed {
		f.after++
	}
	if f.armed {
		f.armed, f.failed = false, true
		return errors.New("injected log write failure")
	}
	return do()
}

func (f *failOnceManager) WritePage(page int, data []byte) error {
	return f.write(func() error { return f.DiskManager.WritePage(page, data) })
}

func (f *failOnceManager) WriteMeta(meta []byte) error {
	return f.write(func() error { return f.DiskManager.WriteMeta(meta) })
}

// TestWALAppendFailureKeepsCheckpointSchedule: an Insert whose
// AppendBatch fails writes nothing more to the log, and leaves the
// checkpoint schedule as it was: under CheckpointPolicy{EveryBatches: 3},
// the log length and the applied watermark after each of the next three
// commits equal those of a run in which the failed Insert never
// happened. A checkpoint taken to discard the failed batch's records
// would write the log's meta block and restart the batch count.
func TestWALAppendFailureKeepsCheckpointSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seed := randomItems(rng, 40, 0)
	extra := randomItems(rng, 6, 1000)
	type rig struct {
		pt  *PagedTree
		log *failOnceManager
	}
	open := func() rig {
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
		walMem, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
		if err != nil {
			t.Fatal(err)
		}
		log := &failOnceManager{DiskManager: walMem}
		pt, _, err := OpenPagedTreeWAL(dm, log, 16)
		if err != nil {
			t.Fatal(err)
		}
		pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 3})
		return rig{pt, log}
	}
	clean, faulty := open(), open()
	for _, r := range []rig{clean, faulty} {
		for _, it := range extra[:2] {
			if err := r.pt.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
	}

	faulty.log.armed = true
	if err := faulty.pt.Insert(extra[2]); err == nil {
		t.Fatal("Insert succeeded with its first log write failing")
	}
	if faulty.log.after != 0 {
		t.Fatalf("the failed Insert wrote %d more times to the log after the failed write", faulty.log.after)
	}
	if faulty.pt.UpdateErr() != nil {
		t.Fatalf("a failed AppendBatch poisoned the handle: %v", faulty.pt.UpdateErr())
	}

	for i, it := range extra[3:] {
		for _, r := range []rig{clean, faulty} {
			if err := r.pt.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		cw, fw := clean.pt.WAL(), faulty.pt.WAL()
		if cw.LogBlocks() != fw.LogBlocks() || cw.AppliedBatch() != fw.AppliedBatch() {
			t.Fatalf("commit %d after the failure: log blocks %d, applied batch %d; without the failure %d and %d",
				i+1, fw.LogBlocks(), fw.AppliedBatch(), cw.LogBlocks(), cw.AppliedBatch())
		}
	}
	want := append(append(append([]rtree.Item(nil), seed...), extra[:2]...), extra[3:]...)
	checkFullWindow(t, faulty.pt, want, "after the failure")
}

// failMetaManager fails the failAt-th WriteMeta it sees once failAt is
// set: with 2, an operation's commit record goes through and the
// checkpoint after it fails.
type failMetaManager struct {
	DiskManager
	failAt int
}

func (f *failMetaManager) WriteMeta(meta []byte) error {
	if f.failAt > 0 {
		if f.failAt--; f.failAt == 0 {
			return errors.New("injected log meta failure")
		}
	}
	return f.DiskManager.WriteMeta(meta)
}

// TestCheckpointLogFailureDoesNotFailCommittedOperation: a checkpoint
// whose own log write fails comes after the commit point, so like a
// failed sync before it (TestCheckpointFailureDoesNotFailCommittedOperation)
// it is a warning: Insert returns nil, CheckpointErr is set, the handle
// is not poisoned, and the insert is durable, in the page file and
// through a reopen.
func TestCheckpointLogFailureDoesNotFailCommittedOperation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	seed := randomItems(rng, 30, 0)
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
	walMem, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	log := &failMetaManager{DiskManager: walMem}
	pt, _, err := OpenPagedTreeWAL(dm, log, 8)
	if err != nil {
		t.Fatal(err)
	}

	extra := randomItems(rng, 2, 1000)
	log.failAt = 2
	if err := pt.Insert(extra[0]); err != nil {
		t.Fatalf("Insert with a failing checkpoint write returned %v; the operation committed", err)
	}
	if log.failAt != 0 {
		t.Fatalf("the insert wrote the log's meta %d times, want 2", 2-log.failAt)
	}
	if pt.CheckpointErr() == nil {
		t.Fatal("checkpoint failure not recorded in CheckpointErr")
	}
	if pt.UpdateErr() != nil {
		t.Fatalf("handle poisoned by a checkpoint-stage failure: %v", pt.UpdateErr())
	}
	want := append(append([]rtree.Item(nil), seed...), extra[0])
	assertDurableAndValid(t, dm, len(want), "after the failed checkpoint")
	checkFullWindow(t, pt, want, "after the failed checkpoint")

	if err := pt.Insert(extra[1]); err != nil || pt.CheckpointErr() != nil {
		t.Fatalf("next Insert: %v, checkpoint warning %v; want both cleared", err, pt.CheckpointErr())
	}
	want = append(want, extra[1])
	reopened, _, err := OpenPagedTreeWAL(dm, walMem, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkFullWindow(t, reopened, want, "after reopen")
}

// TestFailedAppendTouchesNothing: an operation whose AppendBatch fails
// writes no page and no catalog to the page file, leaves the handle
// usable and every query answering as before it, and then commits when
// tried again. It runs on the commit's two big-batch branches: a delete
// whose condense stages more than 64 pages, and deletes at 512-byte
// pages that overflow the free list, so the commit trims it.
func TestFailedAppendTouchesNothing(t *testing.T) {
	t.Run("large-batch", func(t *testing.T) {
		tree, victim := condenseStormTree(t)
		live := tree.Items()
		r := openFailAppendRig(t, tree, DefaultPageSize)
		staged := r.deleteFailingAppend(t, &live, slices.IndexFunc(live, func(it rtree.Item) bool { return it.ID == victim }))
		t.Logf("the delete stages %d pages", staged)
		if staged <= 64 {
			t.Fatalf("the delete staged %d pages, want more than 64", staged)
		}
	})
	t.Run("free-list-overflow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		tree, err := rtree.New(updateTestParams())
		if err != nil {
			t.Fatal(err)
		}
		tree.InsertAll(randomItems(rng, 700, 0))
		live := tree.Items()
		r := openFailAppendRig(t, tree, updateTestPageSize)
		atCap := func() bool {
			m := r.pt.Meta()
			return len(m.Free) == maxFreeListLen(updateTestPageSize, len(m.Levels))
		}
		for !atCap() {
			i := rng.Intn(len(live))
			if found, err := r.pt.Delete(live[i]); err != nil || !found {
				t.Fatalf("delete of live item %d: found %v, err %v", live[i].ID, found, err)
			}
			live = slices.Delete(live, i, i+1)
		}
		t.Logf("free list full after %d items left", len(live))
		// A delete overflows the list when, with the list full and the
		// height kept, it frees more pages than it takes.
		overflows := 0
		for tries := 0; overflows < 2; tries++ {
			if tries == 100 {
				t.Fatalf("%d deletes at the free list's cap, %d of them overflowing it", tries, overflows)
			}
			before := r.pt.Meta()
			full := atCap()
			r.deleteFailingAppend(t, &live, rng.Intn(len(live)))
			after := r.pt.Meta()
			if full && len(after.Levels) == len(before.Levels) && after.NumPages() < before.NumPages() {
				overflows++
			}
		}
	})
}

// condenseStormTree builds a two-level tree at the default page size
// (MaxEntries 100, MinEntries 40) whose leaves are full clusters, one
// each, plus one leaf at minimum fill whose items lie one in each of the
// first 40 clusters. Deleting victim, that leaf's first item, eliminates
// the leaf, and each of its 39 orphans splits a different full cluster:
// the one delete stages 78 leaves and the root.
func condenseStormTree(t *testing.T) (tree *rtree.Tree, victim int64) {
	t.Helper()
	const clusters, maxEntries, minEntries = 45, 100, 40
	var id int64
	item := func(x, y float64) (geom.Rect, int64) {
		id++
		return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, id
	}
	root := rtree.NodeData{Page: 0}
	nodes := []rtree.NodeData{{}}
	for c := 0; c <= clusters; c++ {
		leaf := rtree.NodeData{Page: c + 1, Level: 1, Leaf: true}
		for k := 0; k < maxEntries; k++ {
			x, y := float64(10*c)+float64(k%10)/9, float64(k/10)/9
			if c == clusters { // the sparse leaf: one item inside each cluster
				if k == minEntries {
					break
				}
				x, y = float64(10*k)+0.5, 0.5
			}
			r, id := item(x, y)
			leaf.Rects, leaf.IDs = append(leaf.Rects, r), append(leaf.IDs, id)
		}
		root.Rects = append(root.Rects, geom.MBR(leaf.Rects))
		root.Children = append(root.Children, leaf.Page)
		nodes = append(nodes, leaf)
	}
	nodes[0] = root
	tree, err := rtree.ImportNodes(rtree.Params{MaxEntries: maxEntries, MinEntries: minEntries, Split: rtree.SplitQuadratic}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tree, nodes[len(nodes)-1].IDs[0]
}

// failAppendRig is a WAL tree whose page file counts what reaches it and
// whose log fails its first write when armed.
type failAppendRig struct {
	pt   *PagedTree
	page *countingDevice
	log  *failOnceManager
	logW *countingDevice
}

func openFailAppendRig(t *testing.T, tree *rtree.Tree, pageSize int) *failAppendRig {
	t.Helper()
	mem, err := NewMemoryManager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(mem, tree); err != nil {
		t.Fatal(err)
	}
	walMem, err := NewMemoryManager(pageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	r := &failAppendRig{page: &countingDevice{DiskManager: mem}, logW: &countingDevice{DiskManager: walMem}}
	r.log = &failOnceManager{DiskManager: r.logW}
	if r.pt, _, err = OpenPagedTreeWAL(r.page, r.log, 16); err != nil {
		t.Fatal(err)
	}
	return r
}

// deleteFailingAppend deletes live[i] with the log's first write failing,
// which must leave the page file, the handle and the tree as they were,
// then deletes it for good. It returns the number of pages the delete's
// batch logged.
func (r *failAppendRig) deleteFailingAppend(t *testing.T, live *[]rtree.Item, i int) int {
	t.Helper()
	it, page := (*live)[i], *r.page
	r.log.armed = true
	if _, err := r.pt.Delete(it); err == nil {
		t.Fatalf("delete of item %d committed with its first log write failing", it.ID)
	}
	if r.page.pageWrites != page.pageWrites || r.page.metaWrites != page.metaWrites {
		t.Fatalf("a delete whose append failed wrote %d pages and %d catalogs to the page file",
			r.page.pageWrites-page.pageWrites, r.page.metaWrites-page.metaWrites)
	}
	if r.pt.UpdateErr() != nil {
		t.Fatalf("a failed append poisoned the handle: %v", r.pt.UpdateErr())
	}
	checkFullWindow(t, r.pt, *live, "after the failed append")

	records := r.logW.pageWrites
	if found, err := r.pt.Delete(it); err != nil || !found {
		t.Fatalf("delete of item %d after the failure: found %v, err %v", it.ID, found, err)
	}
	*live = slices.Delete(*live, i, i+1)
	checkFullWindow(t, r.pt, *live, "after the delete")
	return r.logW.pageWrites - records - 1 // every record but the commit record is a page
}

// TestLogSyncFailurePoisonsHandle: the sync after the commit horizon is
// part of the commit. When it fails, the horizon was written and a crash
// may keep the batch or lose it, so Insert fails with the handle
// poisoned, and the log keeps its position past the batch: nothing later
// reuses its ID or sequence numbers. A reopen recovers it.
func TestLogSyncFailurePoisonsHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seed := randomItems(rng, 30, 0)
	dm, walMem, _ := openUpdatable(t, seed, 8)
	log := &failSyncManager{DiskManager: walMem}
	pt, _, err := OpenPagedTreeWAL(dm, log, 8)
	if err != nil {
		t.Fatal(err)
	}
	extra := randomItems(rng, 1, 1000)[0]
	w := pt.WAL()
	batch, seq := w.nextBatch, w.nextSeq
	log.failSync = true
	if err := pt.Insert(extra); err == nil {
		t.Fatal("Insert succeeded with the log's sync failing")
	}
	if pt.UpdateErr() == nil {
		t.Fatal("a failed log sync after the commit horizon left the handle usable")
	}
	if w.nextBatch != batch+1 || w.nextSeq <= seq || w.committedSeq != w.nextSeq-1 {
		t.Fatalf("log position after the failed sync: batch %d, seq %d, horizon %d; want past batch %d from seq %d",
			w.nextBatch, w.nextSeq, w.committedSeq, batch, seq)
	}
	reopened, rep, err := OpenPagedTreeWAL(dm, walMem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedBatches != 1 {
		t.Fatalf("reopen replayed %d batches, want the one whose sync failed", rep.ReplayedBatches)
	}
	checkFullWindow(t, reopened, append(seed, extra), "after reopen")
}
