package rtree

import (
	"math"

	"rtreebuf/internal/geom"
)

// Nearest-neighbor search: best-first branch and bound over the tree
// using minimum distance between the query point and node MBRs
// (Hjaltason–Samet incremental distance scanning). Not part of the
// paper's evaluation, but a capability every production R-tree offers —
// and its page-access pattern is exactly the kind of workload the buffer
// model prices.
//
// The queue and the loop exist once, in Frontier: the in-memory tree
// expands *node values below, the paged tree (storage.PagedTree.Nearest)
// expands page numbers read through its buffer pool. Same queue, same
// total order (distance, then push order) — so two trees of the same
// shape visit nodes and report ties in the same order.

// Neighbor is one nearest-neighbor result.
type Neighbor struct {
	Item Item
	// Dist is the Euclidean distance from the query point to the item's
	// rectangle (zero if the point lies inside it).
	Dist float64
}

// minDistSq returns the squared minimum distance from p to r (zero when
// p is inside r).
func minDistSq(p geom.Point, r geom.Rect) float64 {
	dx := max(r.MinX-p.X, 0, p.X-r.MaxX)
	dy := max(r.MinY-p.Y, 0, p.Y-r.MaxY)
	return dx*dx + dy*dy
}

// maxDistSq returns the squared distance from p to the farthest point of
// r. It is minDistSq's counterpart with the same subtractions, so for a
// rectangle s inside r, minDistSq(p, s) <= maxDistSq(p, r) holds exactly
// in floating point: rounding is monotone, and each of s's differences
// is at most one of r's.
func maxDistSq(p geom.Point, r geom.Rect) float64 {
	dx := max(p.X-r.MinX, r.MaxX-p.X)
	dy := max(p.Y-r.MinY, r.MaxY-p.Y)
	return dx*dx + dy*dy
}

// frontierKey is one heap slot: an entry's squared distance, its push
// sequence number and where the entry sits — Frontier.nodes[ref] for
// ref >= 0, Frontier.items[^ref] otherwise. 32 bits count the entries of
// any tree that fits in memory.
type frontierKey struct {
	distSq float64
	seq    int32
	ref    int32
}

// before is the frontier's total order: nearer first, and of two
// equidistant entries the one pushed first.
func (a frontierKey) before(b frontierKey) bool {
	return a.distSq < b.distSq || !(b.distSq < a.distSq) && a.seq < b.seq
}

// reach is a set of items known to lie within a squared distance of the
// search point: one item at its own distance, or a child's subtree at its
// rectangle's MAXDIST with a lower bound on its items.
type reach struct {
	distSq float64
	count  int
}

// nearestReach keeps, of the disjoint reaches counted into it, the
// nearest ones that hold k items together: a max-heap by distance whose
// counts, less the farthest one's, sum to fewer than k.
type nearestReach struct {
	heap  []reach
	items int // the sum of heap's counts
}

// add counts x, whose count is in [1, k], and returns the squared
// distance within which k of the counted items lie: the farthest kept
// reach's once they hold k, +Inf before. Each reach is pushed and popped
// at most once, so a count costs O(log k).
func (s *nearestReach) add(x reach, k int) float64 {
	h := s.heap
	if len(h) > 0 && x.distSq < h[0].distSq && s.items+x.count-h[0].count >= k {
		// x makes the farthest reach unnecessary: it takes its place.
		s.items += x.count - h[0].count
		siftDownReach(h, x)
	} else {
		h = append(h, x)
		i := len(h) - 1
		for i > 0 && h[(i-1)/2].distSq < x.distSq {
			h[i] = h[(i-1)/2]
			i = (i - 1) / 2
		}
		h[i] = x
		s.items += x.count
	}
	for s.items-h[0].count >= k {
		s.items -= h[0].count
		last := h[len(h)-1]
		h = h[:len(h)-1]
		siftDownReach(h, last)
	}
	s.heap = h
	if s.items >= k {
		return h[0].distSq
	}
	return math.Inf(1)
}

// siftDownReach puts x at the top of the max-heap h, whose top slot it
// overwrites, and restores the heap.
func siftDownReach(h []reach, x reach) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].distSq > h[c].distSq {
			c = r
		}
		if !(h[c].distSq > x.distSq) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = x
	}
}

// reset empties s for a new set of reaches.
func (s *nearestReach) reset() { s.heap, s.items = s.heap[:0], 0 }

// Frontier is the priority queue of one best-first search over nodes
// referenced by N. Its heap holds 16-byte (distance, push order, ref)
// keys; the nodes and items they name sit in two append-only slices.
// Nothing is boxed. The zero value is ready for BestFirst, and so is a
// used one: each search starts from an empty queue on the backing arrays
// the last one grew.
//
// A node's entries are queued only once the node has been read: while
// expand runs, it tests entries with Within and offers those within the
// bound to PushNodeAt or PushItemAt with their index in the node, which
// collect them as candidates; once it returns, BestFirst pushes those
// still within the bound. An entry's push order is its node's expansion
// (every entry of an earlier expansion first) and then its index, not
// the order expand offered it in, so expand may offer a node's entries
// in any order and skip any it knows to be beyond the bound: the
// storage tree offers a page's nearest groups of entries first and stops
// at the first group beyond the bound. A search for k items lowers the
// bound in two ways.
//
//   - Item bound: it keeps the k smallest item distances offered so far
//     and, once it has k, queues nothing farther than the largest of
//     them. Such an entry could never be returned: the k items at or
//     below that distance all pop before it, and anything below it is
//     no nearer.
//   - Sibling bound: the caller of PushNodeAt states a lower bound on the
//     items under the child (the storage tree: the child page's entry
//     count, 1 until the page is indexed), and the bound drops to the
//     smallest MAXDIST (the distance to a child rectangle's farthest
//     corner) at which the children offered so far by the expanding node
//     hold k items. Each child's subtree lies inside its rectangle and
//     shares no item with its siblings, so k distinct items lie within
//     that distance: every node on their paths is no farther than they
//     are and pops before anything strictly beyond it. Exact MBRs are
//     not needed, containment is; computed with the same floating-point
//     operations, an item's minDistSq never exceeds its container's
//     maxDistSq, so no epsilon is needed.
//
// Ties pop in push order, and an entry is dropped only when it is
// strictly farther than k items queued or bound to be queued, so pop
// order, nodes expanded and results are those of the same search without
// either bound, whatever order expand offers entries in.
type Frontier[N any] struct {
	p       geom.Point
	k       int
	boundSq float64       // nothing farther is queued: limitSq, then the bounds above
	keys    []frontierKey // binary min-heap in before order
	nodes   []N           // nodes[ref] for every node collected in this search
	items   []Item        // items[^ref] for every item collected in this search
	base    int32         // push order of entry 0 of the expanding node
	pushes  int           // keys pushed below the root in this search
	cands   []frontierKey // the expanding node's candidates; seq is the entry's index
	far     nearestReach  // its children within the bound, by MAXDIST (k > 0)
	best    nearestReach  // the items offered in this search, one each (k > 0)
}

// BestFirst runs the Hjaltason–Samet search from root around p and
// appends the items found to dst in ascending distance order, returning
// the extended slice. It stops after k items (k <= 0: no bound) and
// never queues anything farther than sqrt(limitSq) from p (+Inf: no
// bound). expand is how a node is read: it is called once per visited
// node, in visit order, and offers the node's entries through Within to
// PushNodeAt or PushItemAt; an error from it ends the search.
func (f *Frontier[N]) BestFirst(dst []Neighbor, p geom.Point, root N, k int, limitSq float64, expand func(n N) error) ([]Neighbor, error) {
	f.p, f.k, f.boundSq, f.base, f.pushes = p, k, limitSq, 1, 0
	f.keys, f.nodes, f.items = f.keys[:0], f.nodes[:0], f.items[:0]
	f.best.reset()
	f.nodes = append(f.nodes, root)
	f.push(frontierKey{distSq: 0, seq: 0, ref: 0})
	found := 0
	for len(f.keys) > 0 && (k <= 0 || found < k) {
		key := f.pop()
		if key.ref < 0 {
			dst = append(dst, Neighbor{Item: f.items[^key.ref], Dist: math.Sqrt(key.distSq)})
			found++
			continue
		}
		f.cands = f.cands[:0]
		f.far.reset()
		if err := expand(f.nodes[key.ref]); err != nil {
			return nil, err
		}
		f.queueCandidates()
	}
	return dst, nil
}

// Within returns the squared distance from the search point to r and
// whether an entry there may still be returned. It inlines, so a reader
// pays a call to PushNodeAt or PushItemAt only for the entries within.
func (f *Frontier[N]) Within(r geom.Rect) (float64, bool) {
	d := minDistSq(f.p, r)
	return d, d <= f.boundSq
}

// Keeps reports whether an entry at squared distance d from the search
// point may still be returned: whether d is within the bound.
func (f *Frontier[N]) Keeps(d float64) bool { return d <= f.boundSq }

// PushNodeAt offers entry i of the expanding node, the child node n
// whose covering rectangle r is at squared distance d, as Within
// reported it, and under which at least items items are stored; a d the
// bound has dropped below since is ignored. It records n as a candidate
// and counts its MAXDIST toward the sibling bound; only a MAXDIST below
// the bound can lower it, so no other is kept. A count below 1 counts
// nothing, and one above the search's k counts as k.
func (f *Frontier[N]) PushNodeAt(i int, d float64, r geom.Rect, n N, items int) {
	if !(d <= f.boundSq) {
		return
	}
	f.cands = append(f.cands, frontierKey{distSq: d, seq: int32(i), ref: int32(len(f.nodes))})
	f.nodes = append(f.nodes, n)
	if f.k > 0 && items > 0 {
		if m := maxDistSq(f.p, r); m < f.boundSq {
			f.boundSq = min(f.boundSq, f.far.add(reach{m, min(items, f.k)}, f.k))
		}
	}
}

// PushItemAt offers entry i of the expanding node, the data item (r, id)
// at squared distance d, as Within reported it; a d the bound has
// dropped below since is ignored. It records the item as a candidate and
// counts d toward the item bound at once: the items collected so far are
// all queued unless the bound drops below them.
func (f *Frontier[N]) PushItemAt(i int, d float64, r geom.Rect, id int64) {
	if !(d <= f.boundSq) {
		return
	}
	f.cands = append(f.cands, frontierKey{distSq: d, seq: int32(i), ref: ^int32(len(f.items))})
	f.items = append(f.items, Item{Rect: r, ID: id})
	if f.k > 0 {
		f.boundSq = min(f.boundSq, f.best.add(reach{d, 1}, f.k))
	}
}

// queueCandidates pushes the expanded node's candidates that are still
// within the bound, each in its entry's place in the push order: the
// bound may have dropped since the first of them was collected. The next
// expansion's entries come after all of this one's.
func (f *Frontier[N]) queueCandidates() {
	next := f.base
	for _, c := range f.cands {
		c.seq += f.base
		next = max(next, c.seq+1)
		if c.distSq <= f.boundSq {
			f.push(c)
			f.pushes++
		}
	}
	f.base = next
}

// push queues x, whose seq is set, in before order.
func (f *Frontier[N]) push(x frontierKey) {
	h := append(f.keys, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	f.keys = h
}

// Pushes returns how many entries the last search queued below its
// root.
func (f *Frontier[N]) Pushes() int { return f.pushes }

// Recycle readies f for a pool: it drops the last search's node
// references, so a pooled Frontier pins no node, and any backing array
// longer than maxLen, so one wide search does not park its queue there.
func (f *Frontier[N]) Recycle(maxLen int) {
	clear(f.nodes)
	f.nodes = f.nodes[:0]
	if cap(f.keys) > maxLen || cap(f.nodes) > maxLen || cap(f.items) > maxLen {
		f.keys, f.nodes, f.items = nil, nil, nil
	}
	if cap(f.cands) > maxLen {
		f.cands = nil
	}
	if cap(f.best.heap) > maxLen {
		f.best.heap = nil
	}
	if cap(f.far.heap) > maxLen {
		f.far.heap = nil
	}
}

// pop removes and returns the first key in before order.
func (f *Frontier[N]) pop() frontierKey {
	h := f.keys
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if last > 0 {
		h[i] = x
	}
	f.keys = h
	return top
}

// expandNode offers n's entries to the frontier; it never fails.
func (s *treeSearch) expandNode(n *node) error {
	if s.trace != nil {
		s.trace(NodeVisit{Page: n.page, Level: s.height - n.height})
	}
	leaf := n.isLeaf()
	for i := range n.entries {
		e := &n.entries[i]
		d, ok := s.f.Within(e.rect)
		if !ok {
			continue
		}
		if leaf {
			s.f.PushItemAt(i, d, e.rect, e.id)
		} else {
			s.f.PushNodeAt(i, d, e.rect, e.child, len(e.child.entries))
		}
	}
	return nil
}

// bestFirst is BestFirst over the in-memory tree's nodes, which cannot
// fail to read. trace, when non-nil, sees every node as it is expanded.
// It returns an exact-size copy of what it found (nil for nothing).
func (t *Tree) bestFirst(p geom.Point, k int, limitSq float64, trace func(NodeVisit)) []Neighbor {
	if t.size == 0 {
		return nil
	}
	s := t.getSearch()
	s.trace, s.height = trace, t.root.height
	s.found, _ = s.f.BestFirst(s.found[:0], p, t.root, k, limitSq, s.expand) // expandNode never fails
	out := owned(s.found)
	t.putSearch(s)
	return out
}

// Nearest returns the k stored items closest to p in ascending distance
// order (fewer if the tree holds fewer). Distance to a rectangle is the
// minimum Euclidean distance; ties are broken by push order.
func (t *Tree) Nearest(p geom.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return t.bestFirst(p, k, math.Inf(1), nil)
}

// NearestWithin returns every stored item whose rectangle lies within
// Euclidean distance radius of p, in ascending distance order.
func (t *Tree) NearestWithin(p geom.Point, radius float64) []Neighbor {
	if radius < 0 {
		return nil
	}
	return t.bestFirst(p, 0, radius*radius, nil)
}

// TraceNearest reports the pages a Nearest(p, k) search reads, in access
// order — the input for pricing kNN workloads with the buffer model. It
// requires AssignPageIDs, like TraceWindow.
func (t *Tree) TraceNearest(p geom.Point, k int, visit func(NodeVisit)) []Neighbor {
	if !t.pagesValid {
		panic("rtree: TraceNearest before AssignPageIDs")
	}
	if k <= 0 {
		return nil
	}
	return t.bestFirst(p, k, math.Inf(1), visit)
}
