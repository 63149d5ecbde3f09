package rtree

import "slices"

// Delete removes one stored item matching both rectangle and ID and
// reports whether it was found. Removal follows Guttman's algorithm:
// FindLeaf, remove the entry, CondenseTree (eliminate under-full nodes and
// reinsert their orphaned entries at the correct height), and shrink the
// root when it is a non-leaf with a single child.
func (t *Tree) Delete(item Item) bool {
	leaf, idx := t.findLeaf(t.root, item)
	if leaf == nil {
		return false
	}
	leaf.entries = slices.Delete(leaf.entries, idx, idx+1)
	t.size--
	t.pagesValid = false
	t.condense(leaf)
	// Shrink the root while it is an internal node with exactly one child.
	for !t.root.isLeaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
	}
	return true
}

// findLeaf locates the leaf holding an entry equal to item (same rectangle
// and ID), returning the leaf and entry index, or (nil, -1).
func (t *Tree) findLeaf(n *node, item Item) (*node, int) {
	if n.isLeaf() {
		for i, e := range n.entries {
			if e.id == item.ID && e.rect.Equal(item.Rect) {
				return n, i
			}
		}
		return nil, -1
	}
	for _, e := range n.entries {
		if e.rect.ContainsRect(item.Rect) {
			if leaf, i := t.findLeaf(e.child, item); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, -1
}

// condense walks from n to the root, removing under-full nodes and
// collecting their entries for reinsertion, then reinserts orphans at
// their original height (leaf entries at height 0, subtrees higher up).
// The orphan list is the tree's scratch; it is cleared after use, so it
// keeps no subtree reachable.
func (t *Tree) condense(n *node) {
	orphans := t.scratch.orphans[:0]
	for n.parent != nil {
		p := n.parent
		i := p.entryIndexOf(n)
		if len(n.entries) < t.params.MinEntries {
			// Eliminate the node, orphaning its entries. slices.Delete
			// clears the slot it vacates, which would otherwise keep a
			// copy of a child pointer past the parent's length.
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.height})
			}
			p.entries = slices.Delete(p.entries, i, i+1)
		} else {
			p.entries[i].rect = n.mbr()
		}
		n = p
	}

	// Reinsert deepest-first so leaf entries see a settled upper tree.
	for i := len(orphans) - 1; i >= 0; i-- {
		o := orphans[i]
		t.insertEntry(o.e, o.height)
	}
	clear(orphans)
	t.scratch.orphans = orphans[:0]
}
