package nd

import (
	"fmt"

	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// Item is one stored data box with its identifier.
type Item struct {
	Rect Rect
	ID   int64
}

// Params configures a d-dimensional R-tree. There is no minimum fill:
// a packed tree fills every node but the last of each level.
type Params struct {
	Dims       int // dimensionality, >= 2
	MaxEntries int // node capacity, >= 2
}

func (p Params) validate() error {
	if p.Dims < 2 {
		return fmt.Errorf("nd: Dims %d < 2", p.Dims)
	}
	if p.MaxEntries < 2 {
		return fmt.Errorf("nd: MaxEntries %d < 2", p.MaxEntries)
	}
	return nil
}

type entry struct {
	rect  Rect
	child *node
	id    int64
}

type node struct {
	entries []entry
	height  int
}

func (n *node) isLeaf() bool { return n.height == 0 }

func (n *node) mbr() Rect {
	if len(n.entries) == 0 {
		panic("nd: MBR of empty node")
	}
	out := n.entries[0].rect
	for _, e := range n.entries[1:] {
		out = out.Union(e.rect)
	}
	return out
}

// Tree is a packed, read-only d-dimensional R-tree: Pack builds it and
// nothing changes it afterwards. Dynamic insertion and deletion exist
// once, in two dimensions (packages rtree and storage); the d-dimensional
// slice is what the paper's "straightforward" generalization needs —
// loading, searching and the per-level MBRs the cost model reads.
type Tree struct {
	root   *node
	params Params
	size   int
}

// Params returns the tree's parameters.
func (t *Tree) Params() Params { return t.params }

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.root.height + 1 }

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int {
	c := 0
	t.walk(func(*node) { c++ })
	return c
}

func (t *Tree) walk(visit func(*node)) {
	var rec func(*node)
	rec = func(n *node) {
		visit(n)
		if n.isLeaf() {
			return
		}
		for _, e := range n.entries {
			rec(e.child)
		}
	}
	rec(t.root)
}

// SearchWindow reports every item intersecting q.
func (t *Tree) SearchWindow(q Rect) []Item {
	checkDims(t.params.Dims, q)
	var out []Item
	var rec func(n *node)
	rec = func(n *node) {
		for _, e := range n.entries {
			if !e.rect.Intersects(q) {
				continue
			}
			if n.isLeaf() {
				out = append(out, Item{Rect: e.rect, ID: e.id})
			} else {
				rec(e.child)
			}
		}
	}
	rec(t.root)
	return out
}

// SearchPoint reports every item containing p.
func (t *Tree) SearchPoint(p Point) []Item {
	return t.SearchWindow(PointRect(p))
}

// Levels returns the node MBRs grouped by paper-convention level
// (0 = root) — the cost model input, as in the 2-D package.
func (t *Tree) Levels() [][]Rect {
	if len(t.root.entries) == 0 {
		return [][]Rect{{}}
	}
	levels := make([][]Rect, t.root.height+1)
	t.walk(func(n *node) {
		lvl := t.root.height - n.height
		levels[lvl] = append(levels[lvl], n.mbr())
	})
	return levels
}

// CheckInvariants verifies structural integrity (child MBRs exact,
// heights, capacity), as in the 2-D package.
func (t *Tree) CheckInvariants() error {
	var check func(n *node, isRoot bool) error
	check = func(n *node, isRoot bool) error {
		if len(n.entries) > t.params.MaxEntries {
			return fmt.Errorf("nd: node exceeds capacity")
		}
		if isRoot && !n.isLeaf() && len(n.entries) < 2 {
			return fmt.Errorf("nd: internal root with %d entries", len(n.entries))
		}
		for i, e := range n.entries {
			if e.rect.Dims() != t.params.Dims {
				return fmt.Errorf("nd: entry %d has %d dims", i, e.rect.Dims())
			}
			if n.isLeaf() {
				if e.child != nil {
					return fmt.Errorf("nd: leaf entry with child")
				}
				continue
			}
			c := e.child
			if c == nil || c.height != n.height-1 {
				return fmt.Errorf("nd: broken child link at entry %d", i)
			}
			got := c.mbr()
			for k := range got.Min {
				//lint:allow floatcmp an entry rect is a copy of its child MBR; the validator checks it bit for bit
				if got.Min[k] != e.rect.Min[k] || got.Max[k] != e.rect.Max[k] {
					return fmt.Errorf("nd: entry %d rect != child MBR", i)
				}
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
	items := 0
	t.walk(func(n *node) {
		if n.isLeaf() {
			items += len(n.entries)
		}
	})
	if items != t.size {
		return fmt.Errorf("nd: size %d but %d leaf entries", t.size, items)
	}
	return nil
}

// Ordering permutes level rectangles for packing.
type Ordering func(rects []Rect, groupSize int) []int

// HilbertOrdering sorts by the d-dimensional Hilbert key of the centers.
func HilbertOrdering(dims int) Ordering {
	bits := HilbertBits(dims)
	return func(rects []Rect, _ int) []int {
		keys := make([]uint64, len(rects))
		for i, r := range rects {
			keys[i] = HilbertKey(r.Center(), bits)
		}
		return pack.SortKeys(keys)
	}
}

// NearestXOrdering sorts by the first coordinate of the centers (the NX
// generalization: in d dimensions it degrades further, which the
// ext-dimensions experiment shows).
func NearestXOrdering() Ordering {
	return func(rects []Rect, _ int) []int {
		xs := make([]float64, len(rects))
		for i, r := range rects {
			xs[i] = (r.Min[0] + r.Max[0]) / 2
		}
		return pack.SortFloats(xs)
	}
}

// Pack bulk-loads a tree bottom-up with the given ordering (the paper's
// General Algorithm in d dimensions).
func Pack(p Params, items []Item, ord Ordering) (*Tree, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if ord == nil {
		return nil, fmt.Errorf("nd: Pack requires an ordering")
	}
	t := &Tree{root: &node{}, params: p}
	if len(items) == 0 {
		return t, nil
	}
	rects := make([]Rect, len(items))
	for i, it := range items {
		checkDims(p.Dims, it.Rect)
		rects[i] = it.Rect
	}
	perm := ord(rects, p.MaxEntries)
	if err := rtree.CheckPermutation(perm, len(items)); err != nil {
		return nil, fmt.Errorf("nd: %w", err)
	}
	var level []*node
	for start := 0; start < len(perm); start += p.MaxEntries {
		end := start + p.MaxEntries
		if end > len(perm) {
			end = len(perm)
		}
		n := &node{}
		for _, idx := range perm[start:end] {
			n.entries = append(n.entries, entry{rect: items[idx].Rect, id: items[idx].ID})
		}
		level = append(level, n)
	}
	height := 0
	for len(level) > 1 {
		height++
		mbrs := make([]Rect, len(level))
		for i, n := range level {
			mbrs[i] = n.mbr()
		}
		perm := ord(mbrs, p.MaxEntries)
		if err := rtree.CheckPermutation(perm, len(level)); err != nil {
			return nil, fmt.Errorf("nd: %w", err)
		}
		var next []*node
		for start := 0; start < len(perm); start += p.MaxEntries {
			end := start + p.MaxEntries
			if end > len(perm) {
				end = len(perm)
			}
			n := &node{height: height}
			for _, idx := range perm[start:end] {
				n.entries = append(n.entries, entry{rect: mbrs[idx], child: level[idx]})
			}
			next = append(next, n)
		}
		level = next
	}
	t.root = level[0]
	t.size = len(items)
	return t, nil
}
