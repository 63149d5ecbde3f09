package rtree

import "rtreebuf/internal/geom"

// split distributes the entries of the overflowing node n into two fresh
// nodes according to the configured heuristic: SplitIndices decides the
// grouping from the rectangles alone, split gathers the entries. Child
// parent pointers are rewired; the caller links the new nodes into the
// tree.
func (t *Tree) split(n *node) (left, right *node) {
	rects := make([]geom.Rect, len(n.entries))
	for i := range n.entries {
		rects[i] = n.entries[i].rect
	}
	li, ri := SplitIndices(t.params.Split, t.params.MinEntries, rects)
	return n.gather(li), n.gather(ri)
}

// gather returns a fresh node at n's height holding n's entries at the
// given indices, in that order, with their children pointing back at it.
func (n *node) gather(idx []int) *node {
	out := &node{height: n.height, entries: make([]entry, len(idx))}
	for i, j := range idx {
		out.entries[i] = n.entries[j]
		if c := out.entries[i].child; c != nil {
			c.parent = out
		}
	}
	return out
}
