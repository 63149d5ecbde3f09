package rtree

import "rtreebuf/internal/geom"

// updateScratch is the working memory of Insert and Delete: a split's
// rectangle column and index lists, and condense's orphans. The tree
// owns one, so a steady-state update reuses it instead of allocating.
// Insert and Delete already need exclusive access to the tree, and no
// query touches it, so concurrent Search* calls may share the tree.
type updateScratch struct {
	rects   []geom.Rect
	lists   splitLists
	orphans []orphan
}

// orphan is an entry of a node condense eliminated, with the height to
// reinsert it at.
type orphan struct {
	e      entry
	height int
}

// split splits the overflowing node n according to the configured
// heuristic and returns the new sibling: SplitIndices decides the groups
// from the rectangles alone, the left group stays in n and the right
// group moves to the sibling, each in SplitIndices order, as the paged
// updater's splitChild does. The right group's children are rewired to
// the sibling; the caller links it into the tree.
//
// The sibling's entry array has room for MaxEntries+1 entries, so the
// inserts that later fill it, and the one that overflows it, never
// regrow it.
func (t *Tree) split(n *node) *node {
	s := &t.scratch
	s.rects = s.rects[:0]
	for i := range n.entries {
		s.rects = append(s.rects, n.entries[i].rect) //lint:allow hotalloc scratch: grows to MaxEntries+1 once per tree
	}
	left, right := s.lists.split(t.params.Split, t.params.MinEntries, s.rects)

	sib := &node{height: n.height, entries: make([]entry, len(right), t.params.MaxEntries+1)} //lint:allow hotalloc the node the split adds, the only allocation of a steady-state split
	for k, j := range right {
		sib.entries[k] = n.entries[j]
		if c := sib.entries[k].child; c != nil {
			c.parent = sib
		}
	}

	// The left group is staged in the sibling's spare capacity (n holds
	// MaxEntries+1 entries, so it fits) and copied back, so no entry of n
	// is overwritten before it is read. Every slot this vacates is
	// cleared: a stale child pointer would keep a node reachable after
	// the tree dropped it.
	stage := sib.entries[len(right):len(n.entries)]
	for k, j := range left {
		stage[k] = n.entries[j]
	}
	copy(n.entries, stage)
	clear(stage)
	clear(n.entries[len(left):])
	n.entries = n.entries[:len(left)]
	return sib
}
