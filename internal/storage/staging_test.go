package storage

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// writableHotTree is the update path's allocation fixture: a tree at the
// benchmark's fan-out on MemoryManager page and log devices, every page
// resident, checkpointed like the benchmark's write workload. It returns
// the heap tree that was saved, for the leaves' contents.
func writableHotTree(tb testing.TB) (*PagedTree, *rtree.Tree) {
	return writableHotTreeFree(tb, 0)
}

// writableHotTreeFree is writableHotTree with free free pages past the
// live ones, listed in a v2 catalog: the free list a run of merges
// leaves behind.
func writableHotTreeFree(tb testing.TB, free int) (*PagedTree, *rtree.Tree) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(2705, 2706))
	tr := rtree.MustNew(rtree.Params{MaxEntries: 100})
	tr.InsertAll(randItems(rng, 30_000))
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		tb.Fatal(err)
	}
	if free > 0 {
		meta, err := openMeta(dm)
		if err != nil {
			tb.Fatal(err)
		}
		live := meta.NumPages()
		stale := make([]byte, DefaultPageSize)
		for p := live; p < live+free; p++ {
			if err := dm.WritePage(p, stale); err != nil {
				tb.Fatal(err)
			}
			meta.Free = append(meta.Free, p)
		}
		meta.TotalPages = live + free
		if err := dm.WriteMeta(encodeMetaV2(meta)); err != nil {
			tb.Fatal(err)
		}
	}
	walDev, err := NewMemoryManager(DefaultPageSize + WALFrameOverhead)
	if err != nil {
		tb.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 2*tr.NodeCount())
	if err != nil {
		tb.Fatal(err)
	}
	if got := len(pt.Meta().Free); got != free {
		tb.Fatalf("fixture opened with %d free pages, want %d", got, free)
	}
	pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 64, MaxLogBlocks: 4096})
	if err := pt.ScanLeaves(func(rtree.Item) error { return nil }); err != nil {
		tb.Fatal(err)
	}
	return pt, tr
}

// TestUpdateAllocationBudget is the dynamic guard of the update path's
// recycling: on a warm tree over MemoryManager devices, a steady-state
// Insert into a leaf with room and a Delete that does not condense
// allocate a handful of objects, not one per touched page, dirty node and
// log record. Before staging, encoding and log framing were recycled the
// same operations cost 32 and 30 allocations here (BenchmarkPagedInsert
// and BenchmarkPagedDelete: 31 and 34, 23.5 KB and 20.0 KB). The
// catalog's Levels and Free are double-buffered and the memory managers
// reuse their meta buffers, so what is left is the log device's new
// blocks while the log is first growing. A tree with a free list of 500
// pages is held to the same budget: neither the catalog copy nor the
// encoded catalog may cost an allocation that grows with the free list.
func TestUpdateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const free = 500
	bytes := map[int]map[string]float64{}
	for _, n := range []int{0, free} {
		t.Run(fmt.Sprintf("free=%d", n), func(t *testing.T) { bytes[n] = testUpdateAllocationBudget(t, n) })
	}
	// The bytes the free list adds to an operation: less than one copy of
	// it, which is what copying Free into a fresh slice cost by itself.
	for op, b := range bytes[free] {
		if extra := b - bytes[0][op]; extra >= 8*free {
			t.Errorf("%s: %.0f B per operation with %d free pages, %.0f B with none: the free list is copied",
				op, b, free, bytes[0][op])
		}
	}
}

// testUpdateAllocationBudget holds Insert and Delete on writableHotTreeFree
// to the allocation budget and returns the bytes each allocates per
// operation.
func testUpdateAllocationBudget(t *testing.T, free int) map[string]float64 {
	pt, tr := writableHotTreeFree(t, free)
	// One new point item per leaf with room: the center of one of the
	// leaf's items that lies in one node's rectangle per level, so the
	// descent can only lead to that leaf and enlarges nothing.
	nodes := tr.ExportNodes()
	var below []geom.Rect // the rectangle of every node but the root
	for _, nd := range nodes {
		if !nd.Leaf {
			below = append(below, nd.Rects...)
		}
	}
	var dups []rtree.Item
	for _, nd := range nodes {
		if !nd.Leaf || len(nd.Rects) >= tr.Params().MaxEntries || len(dups) == 101 {
			continue
		}
		for _, r := range nd.Rects {
			p, covering := r.Center(), 0
			for _, b := range below {
				if b.ContainsPoint(p) {
					covering++
				}
			}
			if covering == len(tr.NodesPerLevel())-1 {
				dups = append(dups, rtree.Item{Rect: geom.PointRect(p), ID: 1<<40 + int64(len(dups))})
				break
			}
		}
	}
	if len(dups) < 101 {
		t.Fatalf("fixture has %d leaves, want at least 101", len(dups))
	}
	before := pt.Meta()
	bytes := map[string]float64{}
	run := func(name string, max float64, op func(rtree.Item) error) {
		k := 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got := testing.AllocsPerRun(100, func() {
			if err := op(dups[k]); err != nil {
				t.Fatalf("%s %d: %v", name, k, err)
			}
			k++
		})
		runtime.ReadMemStats(&m1)
		bytes[name] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(k)
		if after := pt.Meta(); after.NumPages() != before.NumPages() || len(after.Free) != len(before.Free) {
			t.Fatalf("%s changed the tree's shape (%v → %v pages, %d → %d free): the case does not test what it says",
				name, before.Levels, after.Levels, len(before.Free), len(after.Free))
		}
		t.Logf("%s: %v allocations, %.0f B per operation", name, got, bytes[name])
		if got > max {
			t.Errorf("%s: %v allocations per operation, budget %v", name, got, max)
		}
	}
	run("Insert", 8, pt.Insert)
	run("Delete", 12, func(it rtree.Item) error {
		found, err := pt.Delete(it)
		if err == nil && !found {
			err = fmt.Errorf("item %d not found", it.ID)
		}
		return err
	})
	return bytes
}

// BenchmarkPagedInsert grows the warm tree by b.N items, splits included.
func BenchmarkPagedInsert(b *testing.B) {
	pt, _ := writableHotTree(b)
	items := randItems(rand.New(rand.NewPCG(2707, 2708)), b.N)
	for i := range items {
		items[i].ID += 1 << 40
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, it := range items {
		if err := pt.Insert(it); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagedDelete removes b.N items inserted (untimed) into the warm
// tree, condensing included.
func BenchmarkPagedDelete(b *testing.B) {
	pt, _ := writableHotTree(b)
	items := randItems(rand.New(rand.NewPCG(2709, 2710)), b.N)
	for i := range items {
		items[i].ID += 1 << 40
		if err := pt.Insert(items[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, it := range items {
		if found, err := pt.Delete(it); err != nil || !found {
			b.Fatalf("delete %d: found=%v err=%v", it.ID, found, err)
		}
	}
}

// TestStagingCannotLeak: the updater's recycled staging carries nothing
// from one operation into the next. An Insert fails before its commit —
// on a read of its second page, or in AppendBatch — and leaves the tree
// as it was; the same Insert retried and a Delete that condenses then
// commit a tree equal to brute force that validates strictly and scrubs
// clean; and a Meta taken before those two commits keeps its Levels and
// Free, which the commits rewrite in the updater's copy.
func TestStagingCannotLeak(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arm     func(dev, walDev *FaultManager)
		disarm  func(dev, walDev *FaultManager)
		errText string
	}{
		{"read of the second page fails",
			func(dev, _ *FaultManager) { dev.FailEveryNthRead(2) },
			func(dev, _ *FaultManager) { dev.FailEveryNthRead(0) },
			"injected fault on read 2"},
		{"AppendBatch fails",
			func(_, walDev *FaultManager) { walDev.FailEveryNthWrite(1) },
			func(_, walDev *FaultManager) { walDev.FailEveryNthWrite(0) },
			"logging update"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(2711, 2712))
			items := randItems(rng, 1500)
			tr := rtree.MustNew(rtree.Params{MaxEntries: 8})
			tr.InsertAll(items)
			mem, err := NewMemoryManager(updateTestPageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveTree(mem, tr); err != nil {
				t.Fatal(err)
			}
			walMem, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
			if err != nil {
				t.Fatal(err)
			}
			dev, walDev := NewFaultManager(mem, 1), NewFaultManager(walMem, 2)
			pt, _, err := OpenPagedTreeWAL(dev, walDev, 4) // cold: the Insert's first reads are misses
			if err != nil {
				t.Fatal(err)
			}

			extra := rtree.Item{Rect: geom.RectAround(geom.Point{X: 0.5, Y: 0.5}, 0.01, 0.01), ID: 1 << 40}
			before := pt.Meta()
			tc.arm(dev, walDev)
			err = pt.Insert(extra)
			tc.disarm(dev, walDev)
			if err == nil || !strings.Contains(err.Error(), tc.errText) {
				t.Fatalf("armed Insert: err = %v, want one containing %q", err, tc.errText)
			}
			if pt.UpdateErr() != nil {
				t.Fatalf("a failure before the commit poisoned the handle: %v", pt.UpdateErr())
			}
			if !reflect.DeepEqual(pt.Meta(), before) {
				t.Fatalf("failed Insert changed the catalog: %+v → %+v", before, pt.Meta())
			}
			checkAgainstBruteForce(t, pt, items)

			held := pt.Meta()
			levels, free := slices.Clone(held.Levels), slices.Clone(held.Free)
			if err := pt.Insert(extra); err != nil {
				t.Fatalf("retried Insert: %v", err)
			}
			items = append(items, extra)
			victim := condensingVictim(t, mem, pt)
			if found, err := pt.Delete(victim); err != nil || !found {
				t.Fatalf("Delete %d: found=%v err=%v", victim.ID, found, err)
			}
			items = slices.DeleteFunc(items, func(it rtree.Item) bool { return it.ID == victim.ID })
			if after := pt.Meta(); len(after.Free) <= len(free) {
				t.Fatalf("Delete freed no page (%d free before, %d after): the case does not condense", len(free), len(after.Free))
			}
			if !reflect.DeepEqual(held.Levels, levels) || !slices.Equal(held.Free, free) {
				t.Fatalf("Meta taken before two commits changed: Levels %v → %v, Free %v → %v",
					levels, held.Levels, free, held.Free)
			}

			checkAgainstBruteForce(t, pt, items)
			assertDurableAndValid(t, mem, len(items), tc.name)
		})
	}
}

// condensingVictim returns an item whose Delete eliminates its leaf: one
// stored in a leaf holding exactly MinEntries items.
func condensingVictim(t *testing.T, dm DiskManager, pt *PagedTree) rtree.Item {
	t.Helper()
	loaded, err := LoadTree(dm)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range loaded.ExportNodes() {
		if nd.Leaf && len(nd.Rects) == pt.Meta().MinEntries {
			return rtree.Item{Rect: nd.Rects[0], ID: nd.IDs[0]}
		}
	}
	t.Fatal("no leaf at minimum fill")
	return rtree.Item{}
}
