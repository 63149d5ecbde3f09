package storage

import (
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rtreebuf/internal/rtree"
)

// The crash-state explorer: seeded Insert/Delete streams through the
// real OpenPagedTreeWAL → Insert/Delete → commitUpdate, with the page
// file and the log each a FaultManager, crashed after every device
// operation (every write and every sync, on either device). A crash
// keeps a subset of the two devices' pending writes, which is what a
// page cache in front of a medium may leave behind (Pillai et al., OSDI
// 2014, treat crash states the same way): every subset while there are
// at most crashEnumerate pending writes, and a seeded sample of
// crashSamples above that, besides keeping all and keeping none. Each
// crash state is reopened with OpenPagedTreeWAL, which recovers, and
// must then hold a strictly valid tree equal, in its catalog and its
// items, to the tree at some operation boundary no earlier than the last
// acknowledged operation: the boundary before the operation in flight,
// or the one after it.
//
// The boundaries come from a first, reference pass of the same stream,
// which checks each of them against the brute-force item set. The
// second pass explores: the devices are deterministic and exploring
// reads them without writing, so both passes issue the same operations.

const (
	crashEnumerate = 8  // every subset of up to this many pending writes
	crashSamples   = 16 // seeded subsets above it, besides all and none
)

// crashStream is one seeded operation stream aimed at a branch of the
// commit.
type crashStream struct {
	name        string
	seed        int64
	items       int     // in the tree saved before the stream
	ops         int     // operations explored
	deleteShare float64 // the chance that an operation deletes a live item
	policy      CheckpointPolicy
	// untilFreeListCap runs deletes, unexplored, until the catalog's free
	// list is full, so that the explored operations trim it.
	untilFreeListCap bool
	// storm replaces the saved tree with condenseStormTree's, at the
	// default page size, and makes its victim the first delete: one batch
	// of 79 pages.
	storm bool
	// The page file's failSync-th Sync and failWrite-th WritePage fail
	// (0: none).
	failSync, failWrite int
}

var crashStreams = []crashStream{
	{name: "checkpoint-every-batch", seed: 1, items: 60, ops: 60, deleteShare: 0.35},
	{name: "checkpoint-every-3", seed: 2, items: 60, ops: 48, deleteShare: 0.4, policy: CheckpointPolicy{EveryBatches: 3}},
	// The checkpoint after the fourth operation finds the page file's
	// sync failing: the operation stands, CheckpointErr is set, and the
	// next commits run with the checkpoint overdue.
	{name: "failed-checkpoint-sync", seed: 3, items: 60, ops: 12, deleteShare: 0.3, failSync: 4},
	// A write-back fails after the commit point and poisons the handle:
	// the stream ends in the operation that failed.
	{name: "failed-write-back", seed: 4, items: 60, ops: 12, deleteShare: 0.3, failWrite: 9},
	// A delete storm fills the free list; the explored deletes overflow
	// it, and the commit trims what the catalog cannot hold.
	{name: "free-list-overflow", seed: 5, items: 700, ops: 16, deleteShare: 1, untilFreeListCap: true},
	{name: "large-batch", seed: 6, ops: 1, deleteShare: 1, storm: true},
}

// TestCrashExplorer runs every stream through the explorer.
func TestCrashExplorer(t *testing.T) {
	for _, s := range crashStreams {
		t.Run(s.name, func(t *testing.T) {
			start := time.Now()
			x := &crashExplorer{t: t, s: s}
			x.run(false)
			x.run(true)
			t.Logf("%d operations explored: %d crash states at %d crash points (%d enumerated, %d sampled; at most %d writes pending), in %v",
				x.explored, x.enumerated+x.sampled, x.points, x.enumerated, x.sampled, x.maxPending, time.Since(start).Round(time.Millisecond))
		})
	}
}

// crashExplorer drives one stream: a reference pass that records the
// tree at each operation boundary, then a pass that explores the crash
// states between them.
type crashExplorer struct {
	t          *testing.T
	s          crashStream
	page, log  *hookedDevice
	exploring  bool
	first      int          // the first explored operation
	done       int          // operations returned so far
	boundaries []crashState // the tree after operation first+i, from the reference pass

	points, enumerated, sampled, explored, maxPending int
}

// crashState is what the explorer compares: the catalog and the items of
// a recovered tree.
type crashState struct {
	items   int
	catalog uint32 // CRC of the catalog's bytes
	tree    uint64 // hash of the items
}

// explorerBufferPages is small: a commit that adds pages evicts, and so
// writes its dirty pages back before FlushDirty does.
const explorerBufferPages = 8

func (x *crashExplorer) run(explore bool) {
	t, s := x.t, x.s
	rng := rand.New(rand.NewSource(s.seed))
	var (
		live     []rtree.Item
		tree     *rtree.Tree
		victim   int64
		err      error
		pageSize = updateTestPageSize
	)
	if s.storm {
		tree, victim = condenseStormTree(t)
		live, pageSize = tree.Items(), DefaultPageSize
	} else {
		live = randomItems(rng, s.items, 0)
		if tree, err = rtree.New(updateTestParams()); err != nil {
			t.Fatal(err)
		}
		tree.InsertAll(live)
	}
	pageMem, err := NewMemoryManager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(pageMem, tree); err != nil {
		t.Fatal(err)
	}
	logMem, err := NewMemoryManager(pageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	x.page = &hookedDevice{FaultManager: NewFaultManager(pageMem, 1), x: x, failSync: s.failSync, failWrite: s.failWrite}
	x.log = &hookedDevice{FaultManager: NewFaultManager(logMem, 1), x: x}
	x.exploring, x.done = false, 0
	pt, _, err := OpenPagedTreeWAL(x.page, x.log, explorerBufferPages)
	if err != nil {
		t.Fatal(err)
	}
	pt.SetCheckpointPolicy(s.policy)

	if !explore {
		x.first = 0
		if s.untilFreeListCap {
			x.first = -1 // found by this pass
		}
	}
	nextID := int64(len(live))
	for i := 0; x.first < 0 || i < x.first+s.ops; i++ {
		if x.first < 0 {
			if len(live) == 0 {
				t.Fatal("the free list never reached its cap")
			}
			if m := pt.Meta(); len(m.Free) == maxFreeListLen(pageSize, len(m.Levels)) {
				x.first = i
			}
		}
		if i == x.first {
			if !explore {
				x.boundaries = []crashState{x.reference(live)}
			}
			x.exploring = explore
		}
		var err error
		if len(live) > 0 && rng.Float64() < s.deleteShare {
			j := rng.Intn(len(live))
			if s.storm && i == 0 {
				j = slices.IndexFunc(live, func(it rtree.Item) bool { return it.ID == victim })
			}
			var found bool
			if found, err = pt.Delete(live[j]); err == nil && !found {
				t.Fatalf("operation %d: live item %d not found", i, live[j].ID)
			}
			live = slices.Delete(live, j, j+1)
		} else {
			it := randomItems(rng, 1, nextID)[0]
			nextID++
			err = pt.Insert(it)
			live = append(live, it)
		}
		if err != nil && !errors.Is(err, errCrashInjected) {
			t.Fatalf("operation %d: %v", i, err)
		}
		if !explore && x.first >= 0 {
			// After a failed operation this is the boundary recovery
			// reaches: the operation failed after its commit point.
			x.boundaries = append(x.boundaries, x.reference(live))
		}
		if err != nil {
			if pt.UpdateErr() == nil {
				t.Fatalf("operation %d failed without poisoning the handle: %v", i, err)
			}
			break
		}
		x.done++
		if x.exploring {
			x.explored++
		}
	}
	x.explore() // the state the stream ends in
}

// reference returns the tree the devices hold with every write kept,
// and checks its items against the brute-force set.
func (x *crashExplorer) reference(live []rtree.Item) crashState {
	x.t.Helper()
	got := x.recover(crashImageOf(x.t, x.page.FaultManager, nil), crashImageOf(x.t, x.log.FaultManager, nil))
	if want := itemsHash(live); got.items != len(live) || got.tree != want {
		x.t.Fatalf("after %d operations: the tree holds %d items (hash %x), brute force %d (hash %x)",
			x.done, got.items, got.tree, len(live), want)
	}
	return got
}

// explore crashes both devices as they stand, once for each subset of
// their pending writes it keeps, and checks each recovered tree.
func (x *crashExplorer) explore() {
	if !x.exploring {
		return
	}
	x.points++
	np, nl := x.page.Pending(), x.log.Pending()
	n := np + nl
	x.maxPending = max(x.maxPending, n)
	keep := make([]bool, n)
	try := func() {
		got := x.recover(crashImageOf(x.t, x.page.FaultManager, keep[:np]), crashImageOf(x.t, x.log.FaultManager, keep[np:]))
		at := x.done - x.first
		if allowed := x.boundaries[at:min(at+2, len(x.boundaries))]; !slices.Contains(allowed, got) {
			x.t.Fatalf("crash %d in operation %d (%d page and %d log writes pending, kept %v): recovered %+v, want one of %+v",
				x.points, x.done, np, nl, keep, got, allowed)
		}
	}
	if n <= crashEnumerate {
		for mask := 0; mask < 1<<n; mask++ {
			for i := range keep {
				keep[i] = mask&(1<<i) != 0
			}
			try()
		}
		x.enumerated += 1 << n
		return
	}
	rng := rand.New(rand.NewSource(x.s.seed<<32 | int64(x.points)))
	for k := 0; k < crashSamples+2; k++ {
		for i := range keep {
			keep[i] = k == 0 || (k > 1 && rng.Intn(2) == 0)
		}
		try()
	}
	x.sampled += crashSamples + 2
}

// recover reopens a crashed pair of devices, which runs recovery, and
// returns what the page file then holds.
func (x *crashExplorer) recover(pages, log DiskManager) crashState {
	x.t.Helper()
	if _, rep, err := OpenPagedTreeWAL(pages, log, explorerBufferPages); err != nil {
		x.t.Fatalf("crash %d in operation %d: reopen: %v (%s)", x.points, x.done, err, rep.String())
	}
	tree, err := LoadTree(pages)
	if err == nil {
		err = rtree.ValidateTreeStrict(tree)
	}
	if err != nil {
		x.t.Fatalf("crash %d in operation %d: recovered tree: %v", x.points, x.done, err)
	}
	catalog, err := pages.ReadMeta()
	if err != nil {
		x.t.Fatal(err)
	}
	items := tree.Items()
	return crashState{items: len(items), catalog: crc32.ChecksumIEEE(catalog), tree: itemsHash(items)}
}

// itemsHash hashes a set of items, in any order: the sum of a mix of
// each item's ID and rectangle.
func itemsHash(items []rtree.Item) uint64 {
	var sum uint64
	for _, it := range items {
		h := mix64(uint64(it.ID))
		for _, v := range [4]float64{it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY} {
			h = mix64(h ^ math.Float64bits(v))
		}
		sum += h
	}
	return sum
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// errCrashInjected is the failure a hookedDevice injects.
var errCrashInjected = errors.New("injected device failure")

// hookedDevice explores the crash states before every write and sync it
// forwards to its FaultManager, and fails the page file's failSync-th
// Sync or failWrite-th WritePage.
type hookedDevice struct {
	*FaultManager
	x                   *crashExplorer
	syncs, writes       int
	failSync, failWrite int
}

func (d *hookedDevice) WritePage(page int, data []byte) error {
	d.x.explore()
	if d.writes++; d.writes == d.failWrite {
		return errCrashInjected
	}
	return d.FaultManager.WritePage(page, data)
}

func (d *hookedDevice) WriteMeta(meta []byte) error {
	d.x.explore()
	return d.FaultManager.WriteMeta(meta)
}

func (d *hookedDevice) Sync() error {
	d.x.explore()
	if d.syncs++; d.syncs == d.failSync {
		return errCrashInjected
	}
	return d.FaultManager.Sync()
}

// crashImageOf returns the medium f leaves when it crashes now keeping
// the pending writes keep marks (all of them for a nil keep), without
// touching f or its device: f's own Crash runs on a copy of its undo
// record, over an image that reads through to the device and keeps its
// own writes.
func crashImageOf(t *testing.T, f *FaultManager, keep []bool) *crashImage {
	t.Helper()
	img := &crashImage{DiskManager: f.inner, pages: map[int][]byte{}}
	g := &FaultManager{inner: img, written: slices.Clone(f.written), synced: maps.Clone(f.synced)}
	if err := g.Crash(func(i int) bool { return keep == nil || keep[i] }); err != nil {
		t.Fatal(err)
	}
	return img
}

// crashImage is a copy-on-write medium over a device it never writes:
// reads fall through to the device except for the pages and the catalog
// written to the image.
type crashImage struct {
	DiskManager
	pages   map[int][]byte
	meta    []byte
	hasMeta bool
	n       int // pages written past the device's end
}

func (c *crashImage) NumPages() int { return max(c.DiskManager.NumPages(), c.n) }

func (c *crashImage) ReadPage(page int, dst []byte) error {
	if p, ok := c.pages[page]; ok {
		copy(dst, p)
		return nil
	}
	if page >= c.DiskManager.NumPages() && page < c.n {
		clear(dst[:c.PageSize()])
		return nil
	}
	return c.DiskManager.ReadPage(page, dst)
}

func (c *crashImage) WritePage(page int, data []byte) error {
	c.pages[page] = append(c.pages[page][:0], data...)
	c.n = max(c.n, page+1)
	return nil
}

func (c *crashImage) WriteMeta(meta []byte) error {
	c.meta, c.hasMeta = append(c.meta[:0], meta...), true
	return nil
}

func (c *crashImage) ReadMeta() ([]byte, error) {
	if c.hasMeta {
		return slices.Clone(c.meta), nil
	}
	return c.DiskManager.ReadMeta()
}

func (c *crashImage) Close() error { return nil }
