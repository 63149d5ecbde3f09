package rtree

import (
	"slices"

	"rtreebuf/internal/geom"
)

// SearchWindow reports every stored item whose rectangle intersects q,
// in depth-first order. This is the paper's region (window) query. It
// collects into a recycled scratch and returns an exact-size copy: a
// steady-state query allocates that copy and nothing else, and a query
// with no results returns nil.
func (t *Tree) SearchWindow(q geom.Rect) []Item {
	s := t.getSearch()
	s.items = t.searchNode(t.root, q, s.items[:0])
	out := owned(s.items)
	t.putSearch(s)
	return out
}

// treeSearch is one query's scratch, recycled through the tree's pool:
// SearchWindow's result buffer, and the best-first search's frontier,
// its output buffer and expand bound once per value. A recycled search
// allocates only the caller's copy of its result, and concurrent readers
// of one tree each use their own.
type treeSearch struct {
	items  []Item // SearchWindow's results
	f      Frontier[*node]
	found  []Neighbor
	expand func(n *node) error
	trace  func(NodeVisit) // TraceNearest's visit; nil otherwise
	height int             // the root's height, for trace levels
}

// maxScratchItems bounds every array a pooled search keeps: a
// full-window query would otherwise park its whole result buffer (40 MB
// at a million items) in the pool until the collector clears it, and a
// wide NearestWithin its whole queue.
const maxScratchItems = 1 << 16

// getSearch takes a search from the tree's recycling pool; putSearch
// returns it holding no node, no trace callback and no array beyond
// maxScratchItems.
func (t *Tree) getSearch() *treeSearch {
	s, _ := t.searches.Get().(*treeSearch)
	if s == nil {
		s = new(treeSearch)
		s.expand = s.expandNode
	}
	return s
}

func (t *Tree) putSearch(s *treeSearch) {
	s.trace = nil
	if cap(s.items) > maxScratchItems {
		s.items = nil
	}
	if cap(s.found) > maxScratchItems {
		s.found = nil
	}
	s.f.Recycle(maxScratchItems)
	t.searches.Put(s)
}

// owned returns the caller's copy of a search's scratch results — the
// one allocation a steady-state query makes. No results is nil.
func owned[T any](scratch []T) []T {
	if len(scratch) == 0 {
		return nil
	}
	return slices.Clone(scratch)
}

// SearchPoint reports every stored item whose rectangle contains p — the
// paper's point query (a region query of size 0 x 0).
func (t *Tree) SearchPoint(p geom.Point) []Item {
	return t.SearchWindow(geom.PointRect(p))
}

// SearchWindowFunc streams every item intersecting q to visit, in
// depth-first order, without materializing a result slice. Returning
// false from visit stops the search early (existence tests, LIMIT-style
// queries). It reports whether the search ran to completion.
func (t *Tree) SearchWindowFunc(q geom.Rect, visit func(Item) bool) bool {
	return t.searchFunc(t.root, q, visit)
}

// searchFunc is the recursive worker of SearchWindowFunc. It is a method,
// not a per-query recursive closure, so a streaming search allocates
// nothing beyond what visit itself does (TestTreeQueryAllocations keeps it
// that way).
func (t *Tree) searchFunc(n *node, q geom.Rect, visit func(Item) bool) bool {
	for _, e := range n.entries {
		if !e.rect.Intersects(q) {
			continue
		}
		if n.isLeaf() {
			if !visit(Item{Rect: e.rect, ID: e.id}) {
				return false
			}
		} else if !t.searchFunc(e.child, q, visit) {
			return false
		}
	}
	return true
}

// searchNode appends every item under n that intersects q to out, in
// DFS order, and returns the grown slice.
func (t *Tree) searchNode(n *node, q geom.Rect, out []Item) []Item {
	if n.isLeaf() {
		for i := range n.entries {
			if e := &n.entries[i]; overlaps(&e.rect, &q) {
				out = append(out, Item{Rect: e.rect, ID: e.id})
			}
		}
		return out
	}
	for i := range n.entries {
		if e := &n.entries[i]; overlaps(&e.rect, &q) {
			out = t.searchNode(e.child, q, out)
		}
	}
	return out
}

// overlaps is r.Intersects(*q) without the short circuit: the four
// comparisons are combined as bits, so each entry of a scanned node
// costs one branch instead of up to four poorly predicted ones. A NaN
// bound compares false here as it does in Intersects.
func overlaps(r, q *geom.Rect) bool {
	return bit(r.MinX <= q.MaxX)&bit(q.MinX <= r.MaxX)&bit(r.MinY <= q.MaxY)&bit(q.MinY <= r.MaxY) != 0
}

// bit is 1 for true and 0 for false; the compiler emits a SETcc for it.
func bit(b bool) uint8 {
	var x uint8
	if b {
		x = 1
	}
	return x
}

// NodeVisit describes one node touched by a traced query.
type NodeVisit struct {
	// Page is the node's page number as assigned by AssignPageIDs
	// (level-order, root = 0).
	Page int
	// Level is the paper-convention level (0 = root).
	Level int
}

// TraceWindow reports every node whose MBR intersects q, invoking visit
// once per node in the order a recursive R-tree search reads pages from
// disk: parent before children, children in entry order. Consistent with
// the paper's model and simulator, a node is reported iff its own MBR
// intersects the query, the root included: the model assigns the root an
// access probability equal to its MBR's reach rather than 1. The visit
// order differs from the simulator's level order, which DESIGN.md §8 shows
// does not change steady-state disk accesses; sim.RunSource replays the
// pages.
//
// TraceWindow requires AssignPageIDs to have been called after the last
// structural change; it panics otherwise, since silent page-number reuse
// would corrupt buffer statistics.
func (t *Tree) TraceWindow(q geom.Rect, visit func(NodeVisit)) {
	if !t.pagesValid {
		panic("rtree: TraceWindow before AssignPageIDs")
	}
	if len(t.root.entries) == 0 || !t.root.mbr().Intersects(q) {
		return
	}
	var rec func(n *node)
	rec = func(n *node) {
		visit(NodeVisit{Page: n.page, Level: t.root.height - n.height})
		if n.isLeaf() {
			return
		}
		for _, e := range n.entries {
			if e.rect.Intersects(q) {
				rec(e.child)
			}
		}
	}
	rec(t.root)
}
