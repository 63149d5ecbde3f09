package storage

import (
	"math"
	"sync/atomic"

	"rtreebuf/internal/geom"
)

// groupSize is how many consecutive entries of a page one group MBR
// covers. At 8 a full 4 KiB page (102 entries) has 13 groups: with its
// entry count, 420 bytes of index beside 4,096 of page. 4 and 16 were no faster (DESIGN §7c,
// "The page index").
const groupSize = 8

// pageIndex is the in-memory index a buffer hit scans before the
// entries: for every page, the MBR of each run of groupSize consecutive
// entries, in entry order. A query tests the groups first and reads the
// entries of a group only when the group passes (query.scanFrame,
// query.pushFrame). The page format is unchanged; the index lives only
// here and is derived from a frame the pool lends.
//
// A page's groups and its entry count are built from its frame on the
// first hit that scans it, and from then on every hit uses them; a fault
// neither builds nor reads them, because it has just copied and checked
// the frame and scans it faster plainly. An empty slot is a page not built yet (or
// with no entries, whose rebuild costs nothing).
//
// Page bytes only change through commitUpdate, which marks the pages it
// rewrites unbuilt (forget), so a built page stays valid across any
// number of evictions. Under ShardedPool the callback that reads or
// builds page p's slot runs under p's shard mutex, so slots need no lock
// of their own; the slot array itself only changes size through grow,
// on the single-goroutine update path.
type pageIndex struct {
	groups [][]geom.Rect // page -> group MBRs; len 0 while unbuilt
	per    int           // groups of a full page, each slot's capacity

	// counts[page] is the page's entry count once built, 0 while
	// unbuilt. A kNN query reads a child's count under its parent's
	// shard mutex while a hit on the child may be building it under
	// another, so it is atomic.
	counts []atomic.Int32
}

// newPageIndex returns the index of span pages of pageSize bytes. The
// slots of those pages share one array, allocated here, so that no hit
// allocates when it builds.
func newPageIndex(span, pageSize int) pageIndex {
	per := (NodeCapacity(pageSize) + groupSize - 1) / groupSize
	arena := make([]geom.Rect, span*per)
	groups := make([][]geom.Rect, span)
	for p := range groups {
		groups[p] = arena[p*per : p*per : (p+1)*per]
	}
	return pageIndex{groups: groups, per: per, counts: make([]atomic.Int32, span)}
}

// of returns page's group MBRs, building them from frame, the page's
// frame, if they are not built yet. It inlines into the scans; build
// does not.
func (ix *pageIndex) of(page int, frame []byte) []geom.Rect {
	if g := ix.groups[page]; len(g) > 0 {
		return g
	}
	return ix.build(page, frame)
}

func (ix *pageIndex) build(page int, frame []byte) []geom.Rect {
	g := ix.groups[page]
	if cap(g) == 0 { // a page past the span the index was made with
		g = make([]geom.Rect, 0, ix.per)
	}
	g = appendGroups(g, frame)
	ix.groups[page] = g
	ix.counts[page].Store(int32(pageCount(frame)))
	return g
}

// grow extends the index to span pages. The new slots are unbuilt and
// get their arrays at their first build; built ones are not copied.
func (ix *pageIndex) grow(span int) {
	if extra := span - len(ix.groups); extra > 0 {
		ix.groups = append(ix.groups, make([][]geom.Rect, extra)...)
		ix.counts = append(ix.counts, make([]atomic.Int32, extra)...)
	}
}

// forget marks the pages of images unbuilt: their bytes are about to
// change. Each slot keeps its array for the next build.
func (ix *pageIndex) forget(images []PageImage) {
	for _, img := range images {
		ix.groups[img.Page] = ix.groups[img.Page][:0]
		ix.counts[img.Page].Store(0)
	}
}

// items returns a lower bound on the items stored under page, a child a
// kNN query is offered: its entry count once built, and 1 before, or
// for a page number past the index (the read of such a child fails). No
// page a query reaches below the root is empty (errEmptyNode), and each
// of its entries is an item or a non-empty subtree.
func (ix *pageIndex) items(page int) int {
	if uint(page) >= uint(len(ix.counts)) {
		return 1
	}
	return max(int(ix.counts[page].Load()), 1)
}

// groupEntries returns the entry bytes of group i of a page whose entry
// bytes are entries.
func groupEntries(entries []byte, i int) []byte {
	lo := i * groupSize * entrySize
	return entries[lo:min(lo+groupSize*entrySize, len(entries))]
}

// appendGroups appends the group MBRs of a frame's entries to dst. Each
// is the exact min and max of its entries' coordinates, so a group that
// fails one of scanFrame's four tests holds no entry that passes it. No
// frame holds a NaN: encodeNodeInto refuses to write one and
// validatePage to read one. min and max keep the loop free of the
// branches a compare-and-assign would mispredict.
func appendGroups(dst []geom.Rect, frame []byte) []geom.Rect {
	entries := pageEntries(frame)
	for i := 0; i*groupSize*entrySize < len(entries); i++ {
		g := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
		for e := groupEntries(entries, i); len(e) >= entrySize; e = e[entrySize:] {
			r := getRect(e)
			g.MinX, g.MinY = min(g.MinX, r.MinX), min(g.MinY, r.MinY)
			g.MaxX, g.MaxY = max(g.MaxX, r.MaxX), max(g.MaxY, r.MaxY)
		}
		dst = append(dst, g)
	}
	return dst
}
