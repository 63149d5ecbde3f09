package rtree

import (
	"fmt"

	"rtreebuf/internal/geom"
)

// Insert adds one data rectangle to the tree using Guttman's insertion
// algorithm (ChooseLeaf, split on overflow, AdjustTree), or the R*-tree
// variant when Params.Split is SplitRStar. This is the primitive behind
// the paper's Tuple-At-a-Time (TAT) loading algorithm. An invalid
// rectangle (inverted, or NaN in any coordinate) is refused before the
// tree is touched: its NaN would spread into every covering rectangle
// above it, and no window would intersect that subtree again.
func (t *Tree) Insert(item Item) error {
	if !item.Rect.Valid() {
		return invalidItem("Insert", item, -1)
	}
	var ctx *insertCtx
	if t.params.Split == SplitRStar {
		ctx = &insertCtx{reinserted: make(map[int]bool)}
	}
	t.insertEntryCtx(entry{rect: item.Rect, id: item.ID}, 0, ctx)
	t.size++
	t.pagesValid = false
	return nil
}

// InsertAll inserts items in order. Every rectangle is checked first, so
// a refused batch leaves the tree as it was.
func (t *Tree) InsertAll(items []Item) error {
	if i := firstInvalid(items); i >= 0 {
		return invalidItem("InsertAll", items[i], i)
	}
	for _, it := range items {
		_ = t.Insert(it) // valid: checked above
	}
	return nil
}

// firstInvalid returns the index of the first item whose rectangle is
// not valid, or -1.
func firstInvalid(items []Item) int {
	for i := range items {
		if !items[i].Rect.Valid() {
			return i
		}
	}
	return -1
}

// invalidItem builds the refusal of an invalid rectangle, naming the
// item's index in its batch when there is one (index >= 0). It is kept
// out of line so that a valid insert pays one comparison and no
// allocation.
//
//go:noinline
func invalidItem(op string, item Item, index int) error {
	if index >= 0 {
		return fmt.Errorf("rtree: %s: item %d (ID %d) has invalid rect %v", op, index, item.ID, item.Rect)
	}
	return fmt.Errorf("rtree: %s: item ID %d has invalid rect %v", op, item.ID, item.Rect)
}

// insertEntry places e at the given height (0 = leaf level) without
// forced-reinsertion bookkeeping. CondenseTree uses it: its reinsertions
// must not trigger further R* reinsertion cascades.
func (t *Tree) insertEntry(e entry, height int) {
	t.insertEntryCtx(e, height, nil)
}

// insertEntryCtx places e at the given height, consulting ctx for the R*
// overflow treatment.
func (t *Tree) insertEntryCtx(e entry, height int, ctx *insertCtx) {
	n := t.chooseNode(e.rect, height)
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
	if len(n.entries) > t.params.MaxEntries {
		t.overflow(n, ctx)
	}
}

// overflow applies the configured overflow treatment to node n: R* forced
// reinsertion on the first overflow per height per insertion (never at
// the root), a split otherwise.
func (t *Tree) overflow(n *node, ctx *insertCtx) {
	if t.params.Split == SplitRStar && ctx != nil && n.parent != nil && !ctx.reinserted[n.height] {
		ctx.reinserted[n.height] = true
		t.forcedReinsert(n, ctx)
		return
	}
	t.splitAndAdjust(n, ctx)
}

// chooseNode descends from the root to the node at the target height whose
// MBR needs the least area enlargement to include r, breaking ties by
// smallest area (Guttman's ChooseLeaf, generalized to any level). Under
// SplitRStar, the step onto the target level instead minimizes overlap
// enlargement (the R* ChooseSubtree refinement). Guttman's choice is
// chooseLeast: the ChooseSubtree assembly kernel on amd64, the Go loop
// chooseLeastLoop elsewhere, both choosing the same entry bit for bit.
//
// The descent also does AdjustTree's MBR work: it unions r into every
// entry on the path, so once the caller appends r's entry to the returned
// node every ancestor's rectangle again equals its child's MBR bit for bit
// (CheckInvariants rule 1), and nothing is recomputed upward. This holds
// because union is componentwise min/max, which is exact and
// order-independent: the builtin min/max order -0 below +0, and valid
// rectangles carry no NaN, so (old MBR) ∪ r is the MBR of the grown node
// however its entries are ordered. A split that follows keeps the set of
// items under the split node's parent, so nothing above the parent moves.
func (t *Tree) chooseNode(r geom.Rect, height int) *node {
	n := t.root
	for n.height > height {
		var best int
		if t.params.Split == SplitRStar && n.height == height+1 {
			best = chooseSubtreeRStar(n, r)
		} else {
			best = chooseLeast(n.entries, r)
		}
		// Extend the chosen subtree's MBR on the way down so ancestors are
		// already exact when the entry lands.
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
	}
	return n
}

// chooseLeastLoop returns the index of the entry of es whose rectangle
// needs the least area enlargement to cover q, ties to the smaller area
// and then to the lower index, or -1 for no entries. It is chooseLeast on
// every architecture but amd64, where ChooseSubtree runs and this loop is
// its test oracle.
func chooseLeastLoop(es []entry, q geom.Rect) int {
	best := -1
	var bestEnl, bestArea float64
	for i := range es {
		enl := es[i].rect.Enlargement(q)
		area := es[i].rect.Area()
		if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitAndAdjust splits the overflowing node n and propagates splits
// toward the root (Guttman's AdjustTree; chooseNode already made the
// covering rectangles exact). Overflows of ancestors go back through the
// overflow treatment, so R* forced reinsertion applies at upper levels too.
func (t *Tree) splitAndAdjust(n *node, ctx *insertCtx) {
	sib := t.split(n)
	p := n.parent
	if p == nil {
		// Root split: grow the tree by one level.
		root := &node{height: n.height + 1, entries: make([]entry, 2, t.params.MaxEntries+1)}
		root.entries[0] = entry{rect: n.mbr(), child: n}
		root.entries[1] = entry{rect: sib.mbr(), child: sib}
		n.parent, sib.parent = root, root
		t.root = root
		return
	}
	// n keeps its entry in the parent, now covering the left group; the
	// sibling's entry follows the others.
	p.entries[p.entryIndexOf(n)].rect = n.mbr()
	p.entries = append(p.entries, entry{rect: sib.mbr(), child: sib})
	sib.parent = p
	if len(p.entries) > t.params.MaxEntries {
		t.overflow(p, ctx)
	}
}

// adjustUpward recomputes MBRs from n to the root. Inserts never need it
// (see chooseNode); it is only for a node that lost entries, which R*
// forced reinsertion leaves behind.
func (t *Tree) adjustUpward(n *node) {
	for n.parent != nil {
		p := n.parent
		i := p.entryIndexOf(n)
		p.entries[i].rect = n.mbr()
		n = p
	}
}

// entryIndexOf returns the index of the entry pointing at child. It panics
// if child is not among p's entries: parent pointers are maintained by
// this package, so a miss is a structural bug, not a user error.
func (p *node) entryIndexOf(child *node) int {
	for i := range p.entries {
		if p.entries[i].child == child {
			return i
		}
	}
	panic("rtree: parent does not reference child")
}
