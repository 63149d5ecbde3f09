package storage

import (
	"errors"
	"math"
	"math/rand"
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
