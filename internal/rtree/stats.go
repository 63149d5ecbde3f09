package rtree

import (
	"fmt"

	"rtreebuf/internal/geom"
)

// Levels returns the MBRs of every node, grouped by paper-convention level
// (index 0 = root, last index = leaf level). This is exactly the input the
// buffer cost model of internal/core consumes: "the minimum bounding
// rectangles of all nodes in the tree".
func (t *Tree) Levels() [][]geom.Rect {
	if len(t.root.entries) == 0 {
		return [][]geom.Rect{{}}
	}
	levels := make([][]geom.Rect, t.root.height+1)
	t.walk(func(n *node) {
		lvl := t.root.height - n.height
		levels[lvl] = append(levels[lvl], n.mbr())
	})
	return levels
}

// NodesPerLevel returns the node count of each level, root first — the
// M_i of the paper (and the contents of its Table 2).
func (t *Tree) NodesPerLevel() []int {
	counts := make([]int, t.root.height+1)
	t.walk(func(n *node) {
		counts[t.root.height-n.height]++
	})
	return counts
}

// AssignPageIDs numbers every node in level order (root = page 0, then
// level 1 left to right, and so on) and returns the total page count.
// Page numbers feed the trace/buffer machinery and the storage codec.
// Structural updates (Insert/Delete) invalidate the assignment.
func (t *Tree) AssignPageIDs() int {
	return len(t.levelOrder())
}

// levelOrder numbers the nodes in level order and returns them by page
// number: a breadth-first walk whose queue is the result.
func (t *Tree) levelOrder() []*node {
	order := []*node{t.root}
	for page := 0; page < len(order); page++ {
		n := order[page]
		n.page = page
		if n.isLeaf() {
			continue
		}
		for _, e := range n.entries {
			order = append(order, e.child)
		}
	}
	t.pagesValid = true
	return order
}

// PageLevels returns, for each page number assigned by AssignPageIDs, the
// paper-convention level of that node. It panics if page IDs are stale.
func (t *Tree) PageLevels() []int {
	if !t.pagesValid {
		panic("rtree: PageLevels before AssignPageIDs")
	}
	out := make([]int, 0, t.NodeCount())
	t.walk(func(*node) { out = append(out, 0) })
	t.walk(func(n *node) { out[n.page] = t.root.height - n.height })
	return out
}

// Stats summarizes the geometric quality of a tree, the quantities the
// Kamel–Faloutsos model is built from.
type Stats struct {
	Levels        int     // number of levels H+1
	Nodes         int     // M, total node count
	Items         int     // data rectangles stored
	TotalArea     float64 // A: sum of areas of all node MBRs
	TotalXExtent  float64 // Lx: sum of x-extents of all node MBRs
	TotalYExtent  float64 // Ly: sum of y-extents of all node MBRs
	LeafArea      float64 // sum of areas of leaf MBRs only
	AvgFill       float64 // mean entries per node / capacity
	NodesPerLevel []int   // root first
}

// ComputeStats gathers Stats in one pass.
func (t *Tree) ComputeStats() Stats {
	s := Stats{
		Levels:        t.root.height + 1,
		Items:         t.size,
		NodesPerLevel: make([]int, t.root.height+1),
	}
	var fillSum float64
	t.walk(func(n *node) {
		s.Nodes++
		s.NodesPerLevel[t.root.height-n.height]++
		mbr := n.mbr()
		s.TotalArea += mbr.Area()
		s.TotalXExtent += mbr.Width()
		s.TotalYExtent += mbr.Height()
		if n.isLeaf() {
			s.LeafArea += mbr.Area()
		}
		fillSum += float64(len(n.entries)) / float64(t.params.MaxEntries)
	})
	if s.Nodes > 0 {
		s.AvgFill = fillSum / float64(s.Nodes)
	}
	return s
}

// CheckInvariants verifies the structural invariants of the R-tree and
// returns the first violation found, or nil. Checked: every internal
// entry's rectangle equals the MBR of its child; parent pointers are
// consistent; all leaves sit at height zero; no node exceeds MaxEntries;
// an internal root has at least two entries; node heights decrease by one
// per level. Minimum fill is deliberately not checked here — packed trees
// legitimately leave the trailing node of each level short; use
// CheckMinFill for trees built by insertion. Tests and loaders call this
// after every build.
func (t *Tree) CheckInvariants() error {
	var check func(n *node, isRoot bool) error
	check = func(n *node, isRoot bool) error {
		if len(n.entries) > t.params.MaxEntries {
			return fmt.Errorf("rtree: node at height %d has %d entries > max %d",
				n.height, len(n.entries), t.params.MaxEntries)
		}
		if isRoot && !n.isLeaf() && len(n.entries) < 2 {
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
			return nil
		}
		for i, e := range n.entries {
			c := e.child
			if c == nil {
				return fmt.Errorf("rtree: internal entry %d has nil child", i)
			}
			if c.parent != n {
				return fmt.Errorf("rtree: child %d parent pointer mismatch", i)
			}
			if c.height != n.height-1 {
				return fmt.Errorf("rtree: child %d at height %d under node at height %d",
					i, c.height, n.height)
			}
			if len(c.entries) == 0 {
				return fmt.Errorf("rtree: child %d is empty", i)
			}
			if got := c.mbr(); !e.rect.Equal(got) {
				return fmt.Errorf("rtree: entry %d rect %v != child MBR %v", i, e.rect, got)
			}
			if err := check(c, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, true); err != nil {
		return err
	}
	// Item count must match.
	items := 0
	t.walk(func(n *node) {
		if n.isLeaf() {
			items += len(n.entries)
		}
	})
	if items != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries", t.size, items)
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

// Items returns every stored item in depth-first order. Intended for tests
// and tooling; it allocates the full result.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.walk(func(n *node) {
		if !n.isLeaf() {
			return
		}
		for _, e := range n.entries {
			out = append(out, Item{Rect: e.rect, ID: e.id})
		}
	})
	return out
}
