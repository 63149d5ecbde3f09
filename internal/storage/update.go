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
// memory (each touched page decoded once into a staged node), then
// commits:
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
// In the steady state an operation allocates next to nothing: the memory
// it stages, encodes and logs in is recycled. The tree owns one updater,
// reset by every beginUpdate. Its staged nodes come from a free list with
// slices at capacity MaxEntries+1 (the most a node holds, between an
// overflow and its split), and a page is decoded into them inside its one
// View. commitUpdate encodes each dirty node once, into a page buffer of
// an arena the updater keeps across batches, and the catalog into one
// reused buffer; the WAL frames every record in one buffer of its own.
// Three rules keep the reuse invisible:
//
//   - The catalog's Levels and Free are double-buffered: beginUpdate
//     copies pt.meta's into the updater's spare pair, and a commit
//     installs the updater's pair in pt.meta and keeps the old one as the
//     next spare. Meta() hands out copies, so no caller holds either.
//   - A node is recycled only when no caller holds it: staged and
//     replaced nodes at the next reset, a split's spare and a node whose
//     first read failed before the function that took them returns.
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
	if !item.Rect.Valid() {
		return fmt.Errorf("storage: inserting invalid rect %v", item.Rect)
	}
	u, err := pt.beginUpdate()
	if err != nil {
		return err
	}
	if err := u.insertEntry(item.Rect, 0, item.ID, true, len(u.meta.Levels)-1); err != nil {
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
	idx := -1
	for i, r := range leaf.Rects {
		if leaf.IDs[i] == item.ID && r.Equal(item.Rect) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, fmt.Errorf("storage: found leaf lost entry (page %d)", leaf.Page)
	}
	leaf.Rects = append(leaf.Rects[:idx], leaf.Rects[idx+1:]...)
	leaf.IDs = append(leaf.IDs[:idx], leaf.IDs[idx+1:]...)
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

// updateNode is one staged page: the decoded node plus batch-local flags.
type updateNode struct {
	rtree.NodeData
	dirty bool // differs from the stored page; goes into the WAL batch
	freed bool // released this batch; excluded from the batch images
}

// updater stages one operation's changes before the all-or-nothing
// commit. Pages are decoded on first touch (reads go through the pool,
// so the operation's I/O is counted like any query's); the stored tree
// and catalog stay untouched until commitUpdate. A tree has one updater
// and every operation reuses it (see the top of the file).
type updater struct {
	pt    *PagedTree
	meta  TreeMeta // Levels and Free copied per operation; mutated freely
	nodes map[int]*updateNode

	// The spare Levels and Free that beginUpdate copies pt.meta's into:
	// the pair pt.meta held before the last commit.
	levels, freeList []int

	free    []*updateNode                // recycled nodes, ready to stage
	retired []*updateNode                // replaced in nodes this operation; free at the next reset
	reading *updateNode                  // the node decodeFrame fills
	decode  func(frame []byte, hit bool) // decodeFrame, bound once: a func passed to View escapes

	// Scratch of the operation's walks.
	path     []int    // insertEntry's root-to-target pages
	leafPath []int    // Delete's root-to-leaf pages
	orphans  []orphan // condense's eliminated entries

	// Commit scratch: page buffers, one per dirty node, kept across
	// batches; the batch's images over them; the encoded catalog.
	arena   [][]byte
	images  []PageImage
	metaBuf []byte
}

func newUpdater(pt *PagedTree) *updater {
	u := &updater{pt: pt, nodes: make(map[int]*updateNode)}
	u.decode = u.decodeFrame
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

// reset returns every node the last operation staged or replaced,
// committed or failed, to the free list: once an operation has returned
// no caller holds any of them.
func (u *updater) reset() {
	for _, n := range u.nodes {
		u.free = append(u.free, n)
	}
	clear(u.nodes)
	u.free = append(u.free, u.retired...)
	u.retired = u.retired[:0]
}

// spare returns an empty node that is not staged: a recycled one, or a
// new one whose slices hold MaxEntries+1 entries so that filling it never
// reallocates.
func (u *updater) spare(page int, leaf bool) *updateNode {
	k := len(u.free)
	if k == 0 {
		c := u.meta.MaxEntries + 1
		return &updateNode{NodeData: rtree.NodeData{
			Page: page, Leaf: leaf,
			Rects: make([]geom.Rect, 0, c), Children: make([]int, 0, c), IDs: make([]int64, 0, c),
		}}
	}
	n := u.free[k-1]
	u.free = u.free[:k-1]
	n.Page, n.Leaf = page, leaf
	n.Rects, n.Children, n.IDs = n.Rects[:0], n.Children[:0], n.IDs[:0]
	n.dirty, n.freed = false, false
	return n
}

// node returns the staged copy of page, the node at depth on the
// operation's path, decoding it on first touch. That first read is of
// the stored tree, where the node sits as many levels higher as the
// operation has so far grown the tree (a root split deepens it, a root
// shrink lifts it), and it is counted at that stored level.
func (u *updater) node(page, depth int) (*updateNode, error) {
	if n, ok := u.nodes[page]; ok {
		return n, nil
	}
	n := u.spare(page, false)
	u.reading = n
	err := u.pt.read(page, depth-(len(u.meta.Levels)-len(u.pt.meta.Levels)), nil, u.decode)
	u.reading = nil
	if err != nil {
		u.free = append(u.free, n)
		return nil, err
	}
	u.nodes[page] = n
	return n, nil
}

// decodeFrame is node's View callback: the frame's entries go into the
// node being read while the frame is on loan. The frame was validated
// when it entered the pool, so this only decodes.
func (u *updater) decodeFrame(frame []byte, _ bool) { decodeInto(&u.reading.NodeData, frame) }

// newNode stages a fresh node on page, replacing any earlier staging
// (reusing a page freed in this same batch is legal; so is replacing the
// root). The replaced node may still be in a caller's hands, so it is
// recycled only at the next reset.
func (u *updater) newNode(page int, leaf bool) *updateNode {
	if old, ok := u.nodes[page]; ok {
		u.retired = append(u.retired, old)
	}
	n := u.spare(page, leaf)
	n.dirty = true
	u.nodes[page] = n
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
func (u *updater) freePage(n *updateNode) {
	n.freed = true
	n.dirty = false
	u.meta.Free = append(u.meta.Free, n.Page)
}

// insertEntry descends from the root to targetDepth choosing the child
// needing least enlargement (ties: smaller area), appends the entry
// (an item when isItem, else a subtree pointer), and resolves overflows
// by splitting upward — Guttman's Insert generalized to any level so
// condense can reinsert orphaned subtrees with it.
func (u *updater) insertEntry(rect geom.Rect, childPage int, id int64, isItem bool, targetDepth int) error {
	path := append(u.path[:0], 0)
	for depth := 0; depth < targetDepth; depth++ {
		n, err := u.node(path[depth], depth)
		if err != nil {
			return err
		}
		best, bestEnl, bestArea := -1, 0.0, 0.0
		for i, r := range n.Rects {
			area := r.Area()
			enl := r.Union(rect).Area() - area
			if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		if best < 0 {
			return fmt.Errorf("storage: internal page %d has no children", n.Page)
		}
		// Grow the covering rectangle on the way down (AdjustTree's
		// upward pass, folded into the descent: union with an exact MBR
		// stays exact).
		if grown := n.Rects[best].Union(rect); !grown.Equal(n.Rects[best]) {
			n.Rects[best] = grown
			n.dirty = true
		}
		path = append(path, n.Children[best])
	}
	u.path = path

	target, err := u.node(path[targetDepth], targetDepth)
	if err != nil {
		return err
	}
	target.Rects = append(target.Rects, rect)
	if isItem {
		target.IDs = append(target.IDs, id)
	} else {
		target.Children = append(target.Children, childPage)
	}
	target.dirty = true

	for d := targetDepth; d >= 0; d-- {
		n, err := u.node(path[d], d)
		if err != nil {
			return err
		}
		if len(n.Rects) <= u.meta.MaxEntries {
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

// take appends src's entries at idx, in idx order, to n: one split half.
func (n *updateNode) take(src *updateNode, idx []int) {
	for _, j := range idx {
		n.Rects = append(n.Rects, src.Rects[j])
		if src.Leaf {
			n.IDs = append(n.IDs, src.IDs[j])
		} else {
			n.Children = append(n.Children, src.Children[j])
		}
	}
}

// splitChild splits an overflowing non-root node in place: the left
// group keeps the page, the right group gets a fresh one, and the parent
// swaps its single covering entry for two exact ones (which may overflow
// the parent — the caller's loop continues upward).
func (u *updater) splitChild(n, parent *updateNode, depth int) {
	left, right := rtree.SplitIndices(u.meta.Split, u.meta.MinEntries, n.Rects)
	sib := u.newNode(u.allocPage(), n.Leaf)
	sib.take(n, right)

	// The left group is gathered in a spare node whose slices then trade
	// places with n's, so no entry of n is overwritten before it is read.
	spare := u.spare(n.Page, n.Leaf)
	spare.take(n, left)
	n.Rects, spare.Rects = spare.Rects, n.Rects
	n.Children, spare.Children = spare.Children, n.Children
	n.IDs, spare.IDs = spare.IDs, n.IDs
	u.free = append(u.free, spare)
	n.dirty = true
	u.meta.Levels[depth]++

	for i, c := range parent.Children {
		if c == n.Page {
			parent.Rects[i] = geom.MBR(n.Rects)
			break
		}
	}
	parent.Rects = append(parent.Rects, geom.MBR(sib.Rects))
	parent.Children = append(parent.Children, sib.Page)
	parent.dirty = true
}

// splitRoot splits the root: both halves move to fresh pages and page 0
// becomes a new two-entry internal root, growing the tree by one level.
// Every other node's depth shifts by one and none is rewritten: pages do
// not store their level.
func (u *updater) splitRoot(root *updateNode) {
	left, right := rtree.SplitIndices(u.meta.Split, u.meta.MinEntries, root.Rects)
	ln := u.newNode(u.allocPage(), root.Leaf)
	ln.take(root, left)
	rn := u.newNode(u.allocPage(), root.Leaf)
	rn.take(root, right)

	newRoot := u.newNode(0, false)
	newRoot.Rects = append(newRoot.Rects, geom.MBR(ln.Rects), geom.MBR(rn.Rects))
	newRoot.Children = append(newRoot.Children, ln.Page, rn.Page)

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
	if n.Leaf {
		for i, r := range n.Rects {
			if n.IDs[i] == item.ID && r.Equal(item.Rect) {
				return true, nil
			}
		}
		*path = (*path)[:len(*path)-1]
		return false, nil
	}
	for i, r := range n.Rects {
		if r.ContainsRect(item.Rect) {
			found, err := u.findLeaf(n.Children[i], item, path)
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
	rect   geom.Rect
	child  int // subtree page; item orphans use id instead
	id     int64
	isItem bool
	height int // of the node the entry lived in (0 = leaf)
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
		pi := -1
		for i, c := range parent.Children {
			if c == n.Page {
				pi = i
				break
			}
		}
		if pi < 0 {
			return fmt.Errorf("storage: page %d not a child of page %d", n.Page, parent.Page)
		}
		if len(n.Rects) < u.meta.MinEntries {
			height := len(u.meta.Levels) - 1 - d
			for i, r := range n.Rects {
				o := orphan{rect: r, height: height}
				if n.Leaf {
					o.isItem, o.id = true, n.IDs[i]
				} else {
					o.child = n.Children[i]
				}
				orphans = append(orphans, o)
			}
			parent.Rects = append(parent.Rects[:pi], parent.Rects[pi+1:]...)
			parent.Children = append(parent.Children[:pi], parent.Children[pi+1:]...)
			parent.dirty = true
			u.freePage(n)
			u.meta.Levels[d]--
		} else if len(n.Rects) > 0 {
			if m := geom.MBR(n.Rects); !m.Equal(parent.Rects[pi]) {
				parent.Rects[pi] = m
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
		if err := u.insertEntry(o.rect, o.child, o.id, o.isItem, targetDepth); err != nil {
			return err
		}
	}
	return nil
}

// shrinkRoot collapses the root while it is an internal node with one
// child: the child's contents move onto page 0 and the tree loses a
// level.
func (u *updater) shrinkRoot() error {
	for {
		root, err := u.node(0, 0)
		if err != nil {
			return err
		}
		if root.Leaf || len(root.Rects) != 1 {
			return nil
		}
		child, err := u.node(root.Children[0], 1)
		if err != nil {
			return err
		}
		next := u.newNode(0, child.Leaf)
		next.Rects = append(next.Rects, child.Rects...)
		next.Children = append(next.Children, child.Children...)
		next.IDs = append(next.IDs, child.IDs...)
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

// encodeDirty encodes every dirty live node once, each into its own page
// buffer of the arena, and returns their images in ascending page order.
func (u *updater) encodeDirty() ([]PageImage, error) {
	u.images = u.images[:0]
	for page, n := range u.nodes {
		if !n.dirty || n.freed {
			continue
		}
		if len(u.images) == len(u.arena) {
			u.arena = append(u.arena, make([]byte, u.pt.dm.PageSize()))
		}
		data := u.arena[len(u.images)]
		if err := encodeNodeInto(data, n.NodeData); err != nil {
			return nil, err
		}
		u.images = append(u.images, PageImage{Page: page, Data: data})
	}
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

	images, err := u.encodeDirty()
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
