package storage

import (
	"cmp"
	"fmt"
	"slices"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// This file is the crash-safe update path: Guttman's Insert and Delete
// executed directly against stored pages through the buffer pool, with
// every mutation funneled through a redo-only write-ahead log.
//
// One operation is one WAL batch. An operation stages its changes in
// memory (each touched page copied once, as its bytes, into a staged
// image that the operation then edits in place), then commits:
//
//	1. page images + new catalog  -> WAL (AppendBatch; the log device's
//	   WriteMeta is the commit point, and a sync makes it durable)
//	2. images                     -> buffer pool (Put, dirty)
//	3. dirty pages                -> page file (FlushDirty)
//	4. catalog                    -> page file meta
//	5. checkpoint when the policy says the log has earned truncation
//
// A failure before step 1 writes the commit horizon leaves the tree
// exactly as it was (staging is discarded, the WAL rolls back its tail).
// A failure after it (the sync that makes the horizon durable included)
// or in steps 2-4 leaves a batch that Recover replays on reopen if the
// log kept it; the in-process handle is poisoned (sticky updateErr)
// because its pool and file now disagree. A failure in step 5 is not an
// operation failure at all — the batch is durable and applied — so it
// surfaces as a sticky CheckpointErr warning rather than an error return.
//
// Updates abandon the level-order page layout SaveTree produces: a split
// allocates the next free page wherever it lands, and a merge returns
// pages to a free list. The catalog records this (meta v2, LevelOrder
// false) so readers switch from range scans to root walks.
//
// A staged page is a page image, read and written with the codec's entry
// accessors as queries read a frame: the descent, FindLeaf and
// CondenseTree read rectangles and children in place, and an operation
// writes only what it changes — an appended entry, a grown or tightened
// covering rectangle, a removal that shifts the entries after it down by
// one. The header's entry count is kept current; only a split decodes a
// page's rectangles, for rtree.SplitIndices, and it builds both halves by
// copying entries in index order. Each image has room for one entry
// more than a page or MaxEntries holds: the most a node holds between an
// overflow and its split. The commit finishes each dirty image in place
// (header, zeroed tail, checksum) and hands it as it is to the log and
// the pool: the bytes are those encodeNodeInto writes for the same node.
//
// In the steady state an operation allocates next to nothing: the memory
// it stages and logs in is recycled. The tree owns one updater, reset by
// every beginUpdate. Its staged images come from a free list, and the
// catalog is encoded into one reused buffer; the WAL frames every record
// in one buffer of its own. Three rules keep the reuse invisible:
//
//   - The catalog's Levels and Free are double-buffered: beginUpdate
//     copies pt.meta's into the updater's spare pair, and a commit
//     installs the updater's pair in pt.meta and keeps the old one as the
//     next spare. Meta() hands out copies, so no caller holds either.
//   - An image is recycled only when no caller holds it: staged and
//     replaced images at the next reset, a split's spare and an image
//     whose first read failed before the function that took them returns.
//   - Whatever the commit hands on is copied by its receiver (Pool.Put,
//     AppendBatch, the managers' WritePage and WriteMeta), so no byte of
//     one operation, failed or committed, survives into the next.

// ErrReadOnlyTree is returned by Insert/Delete on a tree opened without
// a WAL (OpenPagedTree): unlogged in-place writes could tear the file.
var ErrReadOnlyTree = fmt.Errorf("storage: tree opened read-only (no WAL; use OpenPagedTreeWAL)")

// OpenPagedTreeWAL opens a persisted tree for buffered querying and
// crash-safe updating. walDev hosts the write-ahead log (its page size
// must be at least dm's plus WALFrameOverhead; WALPath names the
// conventional sibling file). Recovery runs first: any batches committed
// to the log but not fully in the page file are replayed before the tree
// is opened, so a crash between commit and write-back is invisible to
// the caller. The report says what recovery found. The tree is backed by
// the single-goroutine LRU Pool, the only pool that takes writes. A
// buffer of fewer than one page is an error, reported before the log is
// touched.
func OpenPagedTreeWAL(dm, walDev DiskManager, bufferPages int) (*PagedTree, RecoveryReport, error) {
	if err := checkBufferPages(bufferPages); err != nil {
		return nil, RecoveryReport{}, err
	}
	var (
		w   *WAL
		err error
	)
	if walDev.NumPages() == 0 {
		w, err = CreateWAL(walDev, dm.PageSize())
	} else {
		w, err = OpenWAL(walDev, dm.PageSize())
	}
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	rep, err := Recover(dm, w)
	if err != nil {
		return nil, rep, err
	}
	meta, err := openMeta(dm)
	if err != nil {
		return nil, rep, err
	}
	pool := buffer.NewPool(dmSource{dm}, bufferPages, meta.PageSpan())
	pool.SetSink(dm)
	pt := &PagedTree{
		dm: dm, pool: pool, meta: meta,
		index: newPageIndex(meta.PageSpan(), dm.PageSize()),
		wal:   w, wpool: pool,
	}
	pt.upd = newUpdater(pt)
	return pt, rep, nil
}

// WAL returns the tree's log handle, or nil for read-only trees.
func (pt *PagedTree) WAL() *WAL { return pt.wal }

// SetCheckpointPolicy replaces the checkpoint policy. The zero policy
// (the default) checkpoints after every batch — shortest possible
// recovery, a sync of each device per operation.
func (pt *PagedTree) SetCheckpointPolicy(p CheckpointPolicy) { pt.ckpt = p }

// UpdateErr returns the sticky error poisoning this handle, if any. A
// non-nil value means a commit half-applied: the WAL holds the batch but
// the in-process state is stale, so every search, kNN query, leaf scan
// and update on the handle fails with an error wrapping it. Reopen with OpenPagedTreeWAL to
// recover.
func (pt *PagedTree) UpdateErr() error { return pt.updateErr }

// poisoned is the error an operation on a poisoned handle fails with.
func (pt *PagedTree) poisoned() error {
	return fmt.Errorf("storage: tree handle poisoned by earlier half-applied commit: %w", pt.updateErr)
}

// CheckpointErr returns the sticky checkpoint warning, if any. A non-nil
// value means the most recent due checkpoint could not truncate the log:
// every operation still committed and applied — no data is at risk and
// no retry is needed — but recovery would replay a longer log than the
// policy wants. Cleared by the next successful checkpoint.
func (pt *PagedTree) CheckpointErr() error { return pt.ckptErr }

// Insert adds one item, running Guttman's ChooseLeaf / split /
// AdjustTree against stored pages. The change is durable (or cleanly
// absent) when Insert returns: one call is one WAL batch.
func (pt *PagedTree) Insert(item rtree.Item) error {
	u, err := pt.beginUpdate()
	if err != nil {
		return err
	}
	if err := u.insertEntry(item.Rect, uint64(item.ID), len(u.meta.Levels)-1); err != nil {
		return err
	}
	u.meta.Items++
	return pt.commitUpdate(u)
}

// Delete removes one stored item matching both rectangle and ID,
// reporting whether it was found. Follows Guttman: FindLeaf, remove,
// CondenseTree with orphan reinsertion, root shrink. A not-found delete
// writes nothing (no WAL batch).
func (pt *PagedTree) Delete(item rtree.Item) (bool, error) {
	u, err := pt.beginUpdate()
	if err != nil {
		return false, err
	}
	path := u.leafPath[:0]
	found, err := u.findLeaf(0, item, &path)
	u.leafPath = path
	if err != nil || !found {
		return false, err
	}
	leaf, err := u.node(path[len(path)-1], len(path)-1)
	if err != nil {
		return false, err
	}
	idx := leaf.find(item)
	if idx < 0 {
		return false, fmt.Errorf("storage: found leaf lost entry (page %d)", leaf.page)
	}
	leaf.remove(idx)
	leaf.dirty = true
	u.meta.Items--
	if err := u.condense(path); err != nil {
		return false, err
	}
	if err := u.shrinkRoot(); err != nil {
		return false, err
	}
	return true, pt.commitUpdate(u)
}

// stagedPage is one staged page: its image plus batch-local flags. img
// holds the page's header, whose leaf flag and entry count are current,
// and its entries, with room for one more than a page or MaxEntries
// holds; the rest of the header and the bytes past the entries are stale
// until finishPage.
type stagedPage struct {
	page  int
	img   []byte
	dirty bool // differs from the stored page; goes into the WAL batch
	freed bool // released this batch; excluded from the batch images
}

func (n *stagedPage) leaf() bool { return pageIsLeaf(n.img) }

func (n *stagedPage) count() int { return pageCount(n.img) }

// entry returns the bytes of entry i.
func (n *stagedPage) entry(i int) []byte {
	return n.img[nodeHeaderSize+i*entrySize:][:entrySize]
}

// child returns the page entry i of an internal node points to.
func (n *stagedPage) child(i int) int { return int(getPayload(n.entry(i))) }

// add appends an entry: rectangle r and the payload (a child page or a
// data ID).
func (n *stagedPage) add(r geom.Rect, payload uint64) {
	c := n.count()
	putEntry(n.entry(c), r, payload)
	setPageCount(n.img, c+1)
}

// remove deletes entry i, keeping the order of the others.
func (n *stagedPage) remove(i int) {
	c := n.count()
	copy(n.img[nodeHeaderSize+i*entrySize:], n.img[nodeHeaderSize+(i+1)*entrySize:nodeHeaderSize+c*entrySize])
	setPageCount(n.img, c-1)
}

// take appends src's entries at idx, in idx order: one split half.
func (n *stagedPage) take(src *stagedPage, idx []int) {
	c := n.count()
	for _, j := range idx {
		copy(n.entry(c), src.entry(j))
		c++
	}
	setPageCount(n.img, c)
}

// childIndex returns the index of the entry pointing to page, or -1.
func (n *stagedPage) childIndex(page int) int {
	for i, e := 0, pageEntries(n.img); len(e) >= entrySize; i, e = i+1, e[entrySize:] {
		if int(getPayload(e)) == page {
			return i
		}
	}
	return -1
}

// find returns the index of the leaf entry equal to item, or -1.
func (n *stagedPage) find(item rtree.Item) int {
	for i, e := 0, pageEntries(n.img); len(e) >= entrySize; i, e = i+1, e[entrySize:] {
		if int64(getPayload(e)) == item.ID && getRect(e).Equal(item.Rect) {
			return i
		}
	}
	return -1
}

// mbr returns the MBR of a non-empty node's rectangles, folded in entry
// order as geom.MBR folds them.
func (n *stagedPage) mbr() geom.Rect {
	e := pageEntries(n.img)
	m := getRect(e)
	for e = e[entrySize:]; len(e) >= entrySize; e = e[entrySize:] {
		m = m.Union(getRect(e))
	}
	return m
}

// updater stages one operation's changes before the all-or-nothing
// commit. Pages are staged on first touch (reads go through the pool,
// so the operation's I/O is counted like any query's); the stored tree
// and catalog stay untouched until commitUpdate. A tree has one updater
// and every operation reuses it (see the top of the file).
type updater struct {
	pt       *PagedTree
	pageSize int
	meta     TreeMeta      // Levels and Free copied per operation; mutated freely
	nodes    []*stagedPage // staged this operation, one per page

	// The spare Levels and Free that beginUpdate copies pt.meta's into:
	// the pair pt.meta held before the last commit.
	levels, freeList []int

	free    []*stagedPage                // recycled images, ready to stage
	retired []*stagedPage                // replaced in nodes this operation; free at the next reset
	reading *stagedPage                  // the image stageFrame fills
	stage   func(frame []byte, hit bool) // stageFrame, bound once: a func passed to View escapes

	// Scratch of the operation's walks.
	path     []int       // insertEntry's root-to-target pages
	leafPath []int       // Delete's root-to-leaf pages
	orphans  []orphan    // condense's eliminated entries
	rects    []geom.Rect // the rectangles of the node a split divides

	// Commit scratch: the batch's images and the encoded catalog.
	images  []PageImage
	metaBuf []byte

	updateWork // over the updater's life
}

// updateWork counts an updater's page work: pages copied in from a
// frame, pages whose rectangles a split decoded, and dirty images a
// commit finished.
type updateWork struct{ staged, decoded, finished int }

func newUpdater(pt *PagedTree) *updater {
	u := &updater{pt: pt, pageSize: pt.dm.PageSize()}
	u.stage = u.stageFrame
	return u
}

func (pt *PagedTree) beginUpdate() (*updater, error) {
	if pt.wal == nil {
		return nil, ErrReadOnlyTree
	}
	if pt.updateErr != nil {
		return nil, pt.poisoned()
	}
	u := pt.upd
	u.reset()
	u.meta = pt.meta
	u.meta.Levels = append(u.levels[:0], pt.meta.Levels...)
	u.meta.Free = append(u.freeList[:0], pt.meta.Free...)
	u.meta.TotalPages = pt.meta.PageSpan()
	return u, nil
}

// reset returns every image the last operation staged or replaced,
// committed or failed, to the free list: once an operation has returned
// no caller holds any of them.
func (u *updater) reset() {
	u.free = append(u.free, u.nodes...)
	u.nodes = u.nodes[:0]
	u.free = append(u.free, u.retired...)
	u.retired = u.retired[:0]
}

// lookup returns the image staged for page this operation, or nil. An
// operation stages a handful of pages, a root-to-leaf path or two, so a
// scan beats a map, whose iteration would walk every slot a past
// condense of dozens of pages grew it to.
func (u *updater) lookup(page int) *stagedPage {
	for _, n := range u.nodes {
		if n.page == page {
			return n
		}
	}
	return nil
}

// spare returns an empty node image that is not staged: a recycled one,
// or a new one with room for a full page and one entry more, and for
// MaxEntries+1 entries, so that no node overflows its image before the
// split that an overflow triggers.
func (u *updater) spare(page int, leaf bool) *stagedPage {
	var n *stagedPage
	if k := len(u.free); k > 0 {
		n = u.free[k-1]
		u.free = u.free[:k-1]
	} else {
		size := max(u.pageSize+entrySize, nodeHeaderSize+(u.meta.MaxEntries+1)*entrySize)
		n = &stagedPage{img: make([]byte, size)}
	}
	n.page, n.dirty, n.freed = page, false, false
	clear(n.img[:nodeHeaderSize])
	if leaf {
		n.img[0] = flagLeaf
	}
	return n
}

// node returns the staged image of page, the node at depth on the
// operation's path, staging it on first touch. That first read is of
// the stored tree, where the node sits as many levels higher as the
// operation has so far grown the tree (a root split deepens it, a root
// shrink lifts it), and it is counted at that stored level.
func (u *updater) node(page, depth int) (*stagedPage, error) {
	if n := u.lookup(page); n != nil {
		return n, nil
	}
	n := u.spare(page, false)
	u.reading = n
	err := u.pt.read(page, depth-(len(u.meta.Levels)-len(u.pt.meta.Levels)), nil, u.stage)
	u.reading = nil
	if err != nil {
		u.free = append(u.free, n)
		return nil, err
	}
	u.nodes = append(u.nodes, n)
	u.staged++
	return n, nil
}

// stageFrame is node's View callback: the frame's header and entries are
// copied into the image being read while the frame is on loan. The frame
// was validated when it entered the pool, so its entries are within it
// and its rectangles valid.
func (u *updater) stageFrame(frame []byte, _ bool) {
	copy(u.reading.img, frame[:nodeHeaderSize+pageCount(frame)*entrySize])
}

// newNode stages a fresh node on page, replacing any earlier staging
// (reusing a page freed in this same batch is legal; so is replacing the
// root). The replaced image may still be in a caller's hands, so it is
// recycled only at the next reset.
func (u *updater) newNode(page int, leaf bool) *stagedPage {
	n := u.spare(page, leaf)
	n.dirty = true
	for i, old := range u.nodes {
		if old.page == page {
			u.retired = append(u.retired, old)
			u.nodes[i] = n
			return n
		}
	}
	u.nodes = append(u.nodes, n)
	return n
}

// allocPage takes a page from the free list, or extends the file.
func (u *updater) allocPage() int {
	if n := len(u.meta.Free); n > 0 {
		p := u.meta.Free[n-1]
		u.meta.Free = u.meta.Free[:n-1]
		return p
	}
	p := u.meta.TotalPages
	u.meta.TotalPages = p + 1
	return p
}

// freePage returns a page to the free list. The page keeps its stale
// bytes; only the catalog makes it dead.
func (u *updater) freePage(n *stagedPage) {
	n.freed = true
	n.dirty = false
	u.meta.Free = append(u.meta.Free, n.page)
}

// insertEntry descends from the root to targetDepth choosing the child
// needing least enlargement (ties: smaller area), appends the entry
// (rect and payload: a data ID at the leaf level, else a subtree's
// page), and resolves overflows by splitting upward — Guttman's Insert
// generalized to any level so condense can reinsert orphaned subtrees
// with it. rect is the one rectangle an operation brings into the tree,
// so it is checked here: every other rectangle the updater writes is an
// entry copied from a validated frame or a union of valid ones.
func (u *updater) insertEntry(rect geom.Rect, payload uint64, targetDepth int) error {
	if !rect.Valid() {
		return fmt.Errorf("storage: inserting invalid rect %v", rect)
	}
	path := append(u.path[:0], 0)
	for depth := 0; depth < targetDepth; depth++ {
		n, err := u.node(path[depth], depth)
		if err != nil {
			return err
		}
		best := chooseChild(pageEntries(n.img), rect)
		if best < 0 {
			return fmt.Errorf("storage: internal page %d has no children", n.page)
		}
		// Grow the covering rectangle on the way down (AdjustTree's
		// upward pass, folded into the descent: union with an exact MBR
		// stays exact).
		e := n.entry(best)
		bestRect := getRect(e)
		if grown := bestRect.Union(rect); !grown.Equal(bestRect) {
			putRect(e, grown)
			n.dirty = true
		}
		path = append(path, int(getPayload(e)))
	}
	u.path = path

	target, err := u.node(path[targetDepth], targetDepth)
	if err != nil {
		return err
	}
	target.add(rect, payload)
	target.dirty = true

	for d := targetDepth; d >= 0; d-- {
		n, err := u.node(path[d], d)
		if err != nil {
			return err
		}
		if n.count() <= u.meta.MaxEntries {
			break
		}
		if d == 0 {
			u.splitRoot(n)
			return nil
		}
		parent, err := u.node(path[d-1], d-1)
		if err != nil {
			return err
		}
		u.splitChild(n, parent, d)
	}
	return nil
}

// chooseChildLoop returns the index of the entry of entries (a page's
// entry bytes) whose rectangle needs the least area enlargement to cover
// rect, ties to the smaller area and then to the lower index, or -1 for
// no entries. It is chooseChild on every architecture but amd64, where
// rtree.ChooseSubtree runs and this loop is its test oracle.
func chooseChildLoop(entries []byte, rect geom.Rect) int {
	best, bestEnl, bestArea := -1, 0.0, 0.0
	for i, e := 0, entries; len(e) >= entrySize; i, e = i+1, e[entrySize:] {
		r := getRect(e)
		area := r.Area()
		enl := r.Union(rect).Area() - area
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitGroups decodes n's rectangles into the updater's scratch and
// returns the two groups rtree.SplitIndices divides them into.
func (u *updater) splitGroups(n *stagedPage) (left, right []int) {
	rects := u.rects[:0]
	for e := pageEntries(n.img); len(e) >= entrySize; e = e[entrySize:] {
		rects = append(rects, getRect(e))
	}
	u.rects = rects
	u.decoded++
	return rtree.SplitIndices(u.meta.Split, u.meta.MinEntries, rects)
}

// splitChild splits an overflowing non-root node in place: the left
// group keeps the page, the right group gets a fresh one, and the parent
// swaps its single covering entry for two exact ones (which may overflow
// the parent — the caller's loop continues upward).
func (u *updater) splitChild(n, parent *stagedPage, depth int) {
	left, right := u.splitGroups(n)
	sib := u.newNode(u.allocPage(), n.leaf())
	sib.take(n, right)

	// The left group is gathered in a spare image that then trades
	// places with n's, so no entry of n is overwritten before it is read.
	spare := u.spare(n.page, n.leaf())
	spare.take(n, left)
	n.img, spare.img = spare.img, n.img
	u.free = append(u.free, spare)
	n.dirty = true
	u.meta.Levels[depth]++

	if i := parent.childIndex(n.page); i >= 0 {
		putRect(parent.entry(i), n.mbr())
	}
	parent.add(sib.mbr(), uint64(sib.page))
	parent.dirty = true
}

// splitRoot splits the root: both halves move to fresh pages and page 0
// becomes a new two-entry internal root, growing the tree by one level.
// Every other node's depth shifts by one and none is rewritten: pages do
// not store their level.
func (u *updater) splitRoot(root *stagedPage) {
	left, right := u.splitGroups(root)
	ln := u.newNode(u.allocPage(), root.leaf())
	ln.take(root, left)
	rn := u.newNode(u.allocPage(), root.leaf())
	rn.take(root, right)

	newRoot := u.newNode(0, false)
	newRoot.add(ln.mbr(), uint64(ln.page))
	newRoot.add(rn.mbr(), uint64(rn.page))

	levels := make([]int, 0, len(u.meta.Levels)+1)
	levels = append(levels, 1, 2)
	levels = append(levels, u.meta.Levels[1:]...)
	u.meta.Levels = levels
}

// findLeaf locates the leaf holding an entry equal to item, appending
// the root-to-leaf page path. Containment-directed DFS, as in Guttman's
// FindLeaf: several subtrees may contain the rectangle.
func (u *updater) findLeaf(page int, item rtree.Item, path *[]int) (bool, error) {
	*path = append(*path, page)
	n, err := u.node(page, len(*path)-1)
	if err != nil {
		return false, err
	}
	if n.leaf() {
		if n.find(item) >= 0 {
			return true, nil
		}
		*path = (*path)[:len(*path)-1]
		return false, nil
	}
	for i, e := 0, pageEntries(n.img); len(e) >= entrySize; i, e = i+1, e[entrySize:] {
		if getRect(e).ContainsRect(item.Rect) {
			found, err := u.findLeaf(int(getPayload(e)), item, path)
			if err != nil || found {
				return found, err
			}
		}
	}
	*path = (*path)[:len(*path)-1]
	return false, nil
}

// orphan is an entry condense takes out of an eliminated node.
type orphan struct {
	rect    geom.Rect
	payload uint64 // a data ID, or a subtree's page
	height  int    // of the node the entry lived in (0 = leaf)
}

// condense walks the deletion path leaf-to-root, eliminating under-full
// nodes (their entries become orphans) and tightening surviving covering
// rectangles, then reinserts orphans at their original height.
func (u *updater) condense(path []int) error {
	orphans := u.orphans[:0]
	for d := len(path) - 1; d >= 1; d-- {
		n, err := u.node(path[d], d)
		if err != nil {
			return err
		}
		parent, err := u.node(path[d-1], d-1)
		if err != nil {
			return err
		}
		pi := parent.childIndex(n.page)
		if pi < 0 {
			return fmt.Errorf("storage: page %d not a child of page %d", n.page, parent.page)
		}
		if count := n.count(); count < u.meta.MinEntries {
			height := len(u.meta.Levels) - 1 - d
			for e := pageEntries(n.img); len(e) >= entrySize; e = e[entrySize:] {
				orphans = append(orphans, orphan{rect: getRect(e), payload: getPayload(e), height: height})
			}
			parent.remove(pi)
			parent.dirty = true
			u.freePage(n)
			u.meta.Levels[d]--
		} else if count > 0 {
			e := parent.entry(pi)
			if m := n.mbr(); !m.Equal(getRect(e)) {
				putRect(e, m)
				parent.dirty = true
			}
		}
	}
	u.orphans = orphans

	// Reinsert in reverse collection order (subtrees before leaf items),
	// matching the in-memory Tree.condense. Heights are re-anchored to
	// the current level count each time: a reinsertion can split the
	// root and deepen the tree under our feet.
	for i := len(orphans) - 1; i >= 0; i-- {
		o := orphans[i]
		targetDepth := len(u.meta.Levels) - 1 - o.height
		if err := u.insertEntry(o.rect, o.payload, targetDepth); err != nil {
			return err
		}
	}
	return nil
}

// shrinkRoot collapses the root while it is an internal node with one
// child: the child's entries move onto page 0 and the tree loses a
// level.
func (u *updater) shrinkRoot() error {
	for {
		root, err := u.node(0, 0)
		if err != nil {
			return err
		}
		if root.leaf() || root.count() != 1 {
			return nil
		}
		child, err := u.node(root.child(0), 1)
		if err != nil {
			return err
		}
		next := u.newNode(0, child.leaf())
		copy(next.img[nodeHeaderSize:], pageEntries(child.img))
		setPageCount(next.img, child.count())
		u.freePage(child)
		u.meta.Levels = u.meta.Levels[1:]
		u.meta.Levels[0] = 1
	}
}

// maxFreeListLen bounds the free list so the v2 catalog always fits the
// page file's metadata capacity (pageSize - 24 header bytes, the
// stricter of the managers' limits).
func maxFreeListLen(pageSize, nLevels int) int {
	n := (pageSize - 24 - 40 - 4*nLevels) / 4
	if n < 0 {
		return 0
	}
	return n
}

// finishDirty finishes every dirty live image in place (finishPage) and
// returns them, a page each, in ascending page order. It refuses a node
// with more entries than a page holds, as encodeNodeInto does: only a
// catalog whose MaxEntries exceeds the page's capacity lets one grow so
// far without a split.
func (u *updater) finishDirty() ([]PageImage, error) {
	u.images = u.images[:0]
	for _, n := range u.nodes {
		if !n.dirty || n.freed {
			continue
		}
		if c, max := n.count(), NodeCapacity(u.pageSize); c > max {
			return nil, fmt.Errorf("storage: node with %d entries exceeds page capacity %d", c, max)
		}
		data := n.img[:u.pageSize]
		finishPage(data, n.leaf(), n.count())
		u.images = append(u.images, PageImage{Page: n.page, Data: data})
	}
	u.finished += len(u.images)
	slices.SortFunc(u.images, func(a, b PageImage) int { return cmp.Compare(a.Page, b.Page) })
	return u.images, nil
}

// encodeMeta encodes the staged catalog into the updater's reused buffer.
func (u *updater) encodeMeta() []byte {
	u.metaBuf = appendMetaV2(u.metaBuf[:0], u.meta)
	return u.metaBuf
}

// commitUpdate runs the commit sequence described at the top of the
// file. On a WAL append failure before the commit horizon is written the
// staged operation is discarded and the stored tree is untouched; on any
// failure after it (the log's own sync, a write-back, the catalog) the
// handle is poisoned (the log has the truth, the process does not).
// Checkpoint-stage failures return nil: the operation committed, so they
// are recorded in CheckpointErr instead.
func (pt *PagedTree) commitUpdate(u *updater) error {
	// The operation abandons level order the moment it commits.
	u.meta.LevelOrder = false
	if max := maxFreeListLen(pt.dm.PageSize(), len(u.meta.Levels)); len(u.meta.Free) > max {
		// Leak the excess pages rather than grow the catalog past its
		// page: they become dead space a future re-save reclaims.
		u.meta.Free = u.meta.Free[:max]
	}

	images, err := u.finishDirty()
	if err != nil {
		return err
	}
	if len(images) == 0 {
		return nil
	}

	metaBytes := u.encodeMeta()
	batch, err := pt.wal.AppendBatch(images, metaBytes)
	if err != nil {
		if batch != 0 {
			pt.updateErr = err // the batch's fate is unknown
		}
		return fmt.Errorf("storage: logging update: %w", err)
	}

	// The batch is durable; from here every failure poisons the handle.
	// The rewritten pages' group MBRs are dropped before the first Put,
	// so that no hit scans new bytes through old groups, not even on a
	// handle that a Put failing halfway leaves poisoned.
	pt.index.grow(u.meta.PageSpan())
	pt.index.forget(images)
	pt.wpool.Grow(u.meta.PageSpan())
	for _, img := range images {
		if err := pt.wpool.Put(img.Page, img.Data); err != nil {
			pt.updateErr = err
			return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
		}
	}
	if err := pt.wpool.FlushDirty(); err != nil {
		pt.updateErr = err
		return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
	}
	if err := pt.dm.WriteMeta(metaBytes); err != nil {
		pt.updateErr = err
		return fmt.Errorf("storage: applying committed batch %d: %w", batch, err)
	}
	if len(u.meta.Levels) != len(pt.meta.Levels) {
		pt.metrics.WithLevels(len(u.meta.Levels)) // the tree changed height
	}
	u.levels, u.freeList = pt.meta.Levels, pt.meta.Free
	pt.meta = u.meta

	if pt.ckpt.Due(pt.wal) {
		// The log may only be truncated once the page writes are
		// durable, not merely issued. A failure from here on is NOT an
		// operation failure — the batch is committed and applied, and the
		// log that holds it is durable; the log is merely longer than the
		// policy wants, so recovery replays more. Returning an error
		// would make a committed Insert look failed and invite a
		// duplicating retry, so the warning goes out of band: sticky
		// CheckpointErr plus a metrics counter, cleared by the next
		// checkpoint that succeeds.
		if err := syncManager(pt.dm); err != nil {
			pt.ckptErr = fmt.Errorf("storage: sync before checkpoint of batch %d: %w", batch, err)
			pt.wal.metrics.noteWALCheckpointFailure()
		} else if err := pt.wal.Checkpoint(batch); err != nil {
			pt.ckptErr = fmt.Errorf("storage: checkpointing batch %d: %w", batch, err)
			pt.wal.metrics.noteWALCheckpointFailure()
		} else {
			pt.ckptErr = nil
		}
	}
	return nil
}
