package rtree

import (
	"fmt"
)

// CheckInvariants is the runtime counterpart of the static checks in
// internal/analysis: a single deep pass asserting every structural
// invariant an R-tree must satisfy for the paper's buffer model to be
// meaningful. It returns the first violation found, or nil. Tests and
// loaders call it after every build.
//
// Checked invariants:
//
//  1. MBR exactness: each internal entry's rectangle equals the child's
//     MBR bit for bit (the model's access probabilities are computed from
//     these rectangles, so a stale MBR silently skews every A_ij).
//  2. Fanout bounds: no node exceeds MaxEntries; every non-root node is
//     non-empty; an internal root has at least two entries.
//  3. Shape: parent pointers are consistent (the root has none), leaf
//     entries carry a valid rectangle and no child, and node heights
//     decrease by exactly one per level, so every leaf sits at the same
//     depth.
//  4. Consistency with the tree's own accounting: the leaf entries found
//     by the walk match Len(), and the per-level node counts match what
//     ComputeStats and NodesPerLevel report.
//
// The Guttman minimum-fill bound is checked separately (CheckMinFill,
// ValidateTreeStrict): bulk-loaded trees legitimately leave the trailing
// node of each level short, so CheckInvariants must pass on the output of
// every loader in internal/pack.
func (t *Tree) CheckInvariants() error {
	if t == nil || t.root == nil {
		return fmt.Errorf("rtree: nil tree or root")
	}
	if t.root.height < 0 {
		return fmt.Errorf("rtree: root at height %d", t.root.height)
	}
	items := 0
	perLevel := make([]int, t.root.height+1)

	var walk func(n, parent *node) error
	walk = func(n, parent *node) error {
		if n.parent != parent {
			return fmt.Errorf("rtree: node at height %d has wrong parent pointer", n.height)
		}
		perLevel[t.root.height-n.height]++
		if len(n.entries) > t.params.MaxEntries {
			return fmt.Errorf("rtree: node at height %d has %d entries > max %d",
				n.height, len(n.entries), t.params.MaxEntries)
		}
		if parent == nil && !n.isLeaf() && len(n.entries) < 2 {
			return fmt.Errorf("rtree: internal root has %d entries < 2", len(n.entries))
		}
		if n.isLeaf() {
			for i, e := range n.entries {
				if e.child != nil {
					return fmt.Errorf("rtree: leaf entry %d has a child", i)
				}
				if !e.rect.Valid() {
					return fmt.Errorf("rtree: leaf entry %d has invalid rect %v", i, e.rect)
				}
			}
			items += len(n.entries)
			return nil
		}
		for i, e := range n.entries {
			c := e.child
			if c == nil {
				return fmt.Errorf("rtree: internal entry %d at height %d has nil child", i, n.height)
			}
			if c.height != n.height-1 {
				return fmt.Errorf("rtree: child %d at height %d under node at height %d",
					i, c.height, n.height)
			}
			if len(c.entries) == 0 {
				return fmt.Errorf("rtree: child %d at height %d is empty", i, c.height)
			}
			if mbr := c.mbr(); !e.rect.Equal(mbr) {
				return fmt.Errorf("rtree: entry %d rect %v != child MBR %v", i, e.rect, mbr)
			}
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil); err != nil {
		return err
	}
	if items != t.size {
		return fmt.Errorf("rtree: tree reports %d items but leaves hold %d", t.size, items)
	}

	// The walk's per-level census must agree with the tree's own
	// accounting (Stats and NodesPerLevel are what the experiments and
	// the cost model consume). An empty tree has no MBRs to aggregate, so
	// ComputeStats cannot run on it; the checks above already cover it.
	if items == 0 {
		return nil
	}
	stats := t.ComputeStats()
	counts := t.NodesPerLevel()
	total := 0
	for lvl, want := range perLevel {
		if counts[lvl] != want || stats.NodesPerLevel[lvl] != want {
			return fmt.Errorf("rtree: level %d holds %d nodes but NodesPerLevel says %d and Stats %d",
				lvl, want, counts[lvl], stats.NodesPerLevel[lvl])
		}
		total += want
	}
	if stats.Nodes != total || stats.Items != items {
		return fmt.Errorf("rtree: Stats counts %d nodes and %d items, the walk %d and %d",
			stats.Nodes, stats.Items, total, items)
	}
	return nil
}

// CheckMinFill verifies that every non-root node holds at least
// MinEntries entries — the Guttman invariant maintained by Insert and
// Delete. Packed trees may legally violate it in their trailing nodes, so
// it is separate from CheckInvariants.
func (t *Tree) CheckMinFill() error {
	var err error
	t.walk(func(n *node) {
		if err != nil || n == t.root {
			return
		}
		if len(n.entries) < t.params.MinEntries {
			err = fmt.Errorf("rtree: node at height %d has %d entries < min %d",
				n.height, len(n.entries), t.params.MinEntries)
		}
	})
	return err
}

// ValidateTreeStrict is CheckInvariants plus the Guttman minimum-fill
// bound: every non-root node must hold at least MinEntries entries. Use it
// on trees maintained by Insert/Delete (including R*); bulk-loaded trees
// may legally fail it in their trailing nodes.
func ValidateTreeStrict(t *Tree) error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	return t.CheckMinFill()
}
