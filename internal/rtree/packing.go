package rtree

import (
	"fmt"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/par"
)

// Ordering arranges the rectangles of one tree level prior to grouping
// them into nodes. It returns a permutation of indices of rects; the
// packer then fills nodes with groupSize consecutive rectangles in that
// order. groupSize is the node capacity n, which slab-based orderings
// (STR) need to shape their tiles.
//
// Implementations live in internal/pack (Nearest-X, Hilbert Sort, STR).
type Ordering func(rects []geom.Rect, groupSize int) []int

// Pack bulk-loads an R-tree bottom-up, implementing the paper's "General
// Algorithm" for packing: order the R data rectangles, place each
// consecutive group of n into a leaf, then recursively pack the leaf MBRs
// into nodes one level up until a single root remains. The ordering is
// re-applied at every level, as in the packing algorithms of
// Roussopoulos–Leifker and Kamel–Faloutsos.
//
// Packed nodes are filled to capacity (the last node of each level may be
// short), so MinEntries violations cannot arise during loading; the
// resulting tree is a valid R-tree for all subsequent Insert/Delete calls.
func Pack(p Params, items []Item, ord Ordering) (*Tree, error) {
	np, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if ord == nil {
		return nil, fmt.Errorf("rtree: Pack requires an ordering")
	}
	t := &Tree{params: np}
	if len(items) == 0 {
		t.root = &node{height: 0}
		return t, nil
	}

	// Leaf level.
	perm := ord(itemRects(items), np.MaxEntries)
	if err := CheckPermutation(perm, len(items)); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	level, slab := newLevel(0, len(perm), np.MaxEntries)
	fillLeaves(slab, items, perm)

	// Upper levels.
	for height := 1; len(level) > 1; height++ {
		mbrs := nodeMBRs(level, np.MaxEntries)
		perm := ord(mbrs, np.MaxEntries)
		if err := CheckPermutation(perm, len(level)); err != nil {
			return nil, fmt.Errorf("rtree: %w", err)
		}
		parents, slab := newLevel(height, len(perm), np.MaxEntries)
		fillParents(slab, parents, level, mbrs, perm, np.MaxEntries)
		level = parents
	}

	t.root = level[0]
	t.size = len(items)
	return t, nil
}

// packGrain is the fewest entries worth a goroutine of their own while a
// level is built: a few tens of microseconds of copying.
const packGrain = 1 << 13

// newLevel allocates the nodes of one packed level over count entries,
// at most fanout to a node, the last node possibly short. The nodes and
// their entries come from one slab each; slab[i] is entry i%fanout of node
// i/fanout, for the caller to fill. Every node's entries are cut to their
// own capacity, so a later Insert that appends to one reallocates it
// instead of running into its neighbour.
func newLevel(height, count, fanout int) (level []*node, slab []entry) {
	slab = make([]entry, count)
	nodes := make([]node, (count+fanout-1)/fanout)
	level = make([]*node, len(nodes))
	for k := range nodes {
		lo, hi := k*fanout, min(k*fanout+fanout, count)
		nodes[k] = node{height: height, entries: slab[lo:hi:hi]}
		level[k] = &nodes[k]
	}
	return level, slab
}

func itemRects(items []Item) []geom.Rect {
	rects := make([]geom.Rect, len(items))
	par.Chunks(len(items), packGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rects[i] = items[i].Rect
		}
	})
	return rects
}

// fillLeaves makes slab the leaf entries: the items in perm's order.
func fillLeaves(slab []entry, items []Item, perm []int) {
	par.Chunks(len(perm), packGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := items[perm[i]]
			slab[i] = entry{rect: it.Rect, id: it.ID}
		}
	})
}

// nodeMBRs returns the MBR of every node of a level of fanout-entry nodes.
func nodeMBRs(level []*node, fanout int) []geom.Rect {
	mbrs := make([]geom.Rect, len(level))
	par.Chunks(len(level), packGrain/fanout+1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mbrs[i] = level[i].mbr()
		}
	})
	return mbrs
}

// fillParents makes slab the entries of parents: the children in perm's
// order, each under its MBR, and points each child at its parent. perm is
// a permutation, so every child is written by exactly one worker.
func fillParents(slab []entry, parents, children []*node, mbrs []geom.Rect, perm []int, fanout int) {
	par.Chunks(len(perm), packGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			child := children[perm[i]]
			child.parent = parents[i/fanout]
			slab[i] = entry{rect: mbrs[perm[i]], child: child}
		}
	})
}

// CheckPermutation returns an error unless perm is a permutation of
// [0, n): what a packer needs of an Ordering's result, or it silently
// drops some rectangles and doubles others.
func CheckPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("ordering returned %d indices for %d rects", len(perm), n)
	}
	seen := make([]bool, n)
	for _, idx := range perm {
		if idx < 0 || idx >= n || seen[idx] {
			return fmt.Errorf("ordering is not a permutation (index %d)", idx)
		}
		seen[idx] = true
	}
	return nil
}
