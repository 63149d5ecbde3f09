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

// Frontier is the priority queue of one best-first search over nodes
// referenced by N. Its heap holds 16-byte (distance, push order, ref)
// keys; the nodes and items they name sit in two append-only slices.
// Nothing is boxed. The zero value is ready for BestFirst, and so is a
// used one: each search starts from an empty queue on the backing arrays
// the last one grew.
//
// A node's entries are queued only once the node has been read: while
// expand runs, it tests each entry with Within and offers those within
// the bound to PushNodeAt or PushItemAt, which collect them as
// candidates; once it returns, BestFirst pushes those still within the
// bound, in entry order. A search for k items lowers the bound in two
// ways.
//
//   - Item bound: it keeps the k smallest item distances queued so far
//     and, once it has k, queues nothing farther than the largest of
//     them. Such an entry could never be returned: the k items at or
//     below that distance all pop before it, and anything below it is
//     no nearer.
//   - Sibling bound: when an expanded node has at least k children
//     within the bound, the bound drops to the k-th smallest of their
//     MAXDISTs (the distance to a child rectangle's farthest corner).
//     Each child's subtree is non-empty, lies inside its rectangle and
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
// either bound.
type Frontier[N any] struct {
	p       geom.Point
	k       int
	boundSq float64       // nothing farther is queued: limitSq, then the bounds above
	keys    []frontierKey // binary min-heap in before order
	nodes   []N           // nodes[ref] for every node collected in this search
	items   []Item        // items[^ref] for every item collected in this search
	seq     int32         // keys pushed in this search
	cands   []frontierKey // the expanding node's candidates in entry order; seq unset
	far     []float64     // max-heap of its children's k smallest squared MAXDISTs (k > 0)
	best    []float64     // max-heap of the k smallest queued item distances (k > 0)
}

// BestFirst runs the Hjaltason–Samet search from root around p and
// appends the items found to dst in ascending distance order, returning
// the extended slice. It stops after k items (k <= 0: no bound) and
// never queues anything farther than sqrt(limitSq) from p (+Inf: no
// bound). expand is how a node is read: it is called once per visited
// node, in visit order, and offers the node's entries, in entry order,
// through Within to PushNodeAt or PushItemAt; an error from it ends the
// search.
func (f *Frontier[N]) BestFirst(dst []Neighbor, p geom.Point, root N, k int, limitSq float64, expand func(n N) error) ([]Neighbor, error) {
	f.p, f.k, f.boundSq, f.seq = p, k, limitSq, 0
	f.keys, f.nodes, f.items, f.best = f.keys[:0], f.nodes[:0], f.items[:0], f.best[:0]
	f.nodes = append(f.nodes, root)
	f.push(frontierKey{distSq: 0, ref: 0})
	found := 0
	for len(f.keys) > 0 && (k <= 0 || found < k) {
		key := f.pop()
		if key.ref < 0 {
			dst = append(dst, Neighbor{Item: f.items[^key.ref], Dist: math.Sqrt(key.distSq)})
			found++
			continue
		}
		f.cands, f.far = f.cands[:0], f.far[:0]
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

// PushNodeAt offers the child node n, whose covering rectangle r is at
// squared distance d, as Within reported it; a d the bound has dropped
// below since is ignored. It records n as a candidate and counts its
// MAXDIST toward the sibling bound; only a MAXDIST below the bound can
// lower it, so no other is kept.
func (f *Frontier[N]) PushNodeAt(d float64, r geom.Rect, n N) {
	if !(d <= f.boundSq) {
		return
	}
	f.cands = append(f.cands, frontierKey{distSq: d, ref: int32(len(f.nodes))})
	f.nodes = append(f.nodes, n)
	if f.k > 0 {
		if m := maxDistSq(f.p, r); m < f.boundSq {
			f.far = f.tighten(f.far, m)
		}
	}
}

// PushItemAt offers the data item (r, id) at squared distance d, as
// Within reported it; a d the bound has dropped below since is ignored.
// It records the item as a candidate and counts d toward the item bound
// at once: the items collected so far are all queued unless the bound
// drops below them.
func (f *Frontier[N]) PushItemAt(d float64, r geom.Rect, id int64) {
	if !(d <= f.boundSq) {
		return
	}
	f.cands = append(f.cands, frontierKey{distSq: d, ref: ^int32(len(f.items))})
	f.items = append(f.items, Item{Rect: r, ID: id})
	if f.k > 0 {
		f.best = f.tighten(f.best, d)
	}
}

// queueCandidates pushes the expanded node's candidates that are still
// within the bound, in entry order: the bound may have dropped since the
// first of them was collected.
func (f *Frontier[N]) queueCandidates() {
	for _, c := range f.cands {
		if c.distSq <= f.boundSq {
			f.push(c)
		}
	}
}

// push queues x behind everything already queued at its distance.
func (f *Frontier[N]) push(x frontierKey) {
	x.seq = f.seq
	f.seq++
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
func (f *Frontier[N]) Pushes() int { return max(int(f.seq)-1, 0) }

// recycle readies f for a pool: it drops the last search's node
// references, so a pooled Frontier pins no node, and any backing array
// longer than maxLen, so one wide search does not park its queue there.
func (f *Frontier[N]) recycle(maxLen int) {
	clear(f.nodes)
	f.nodes = f.nodes[:0]
	if cap(f.keys) > maxLen || cap(f.nodes) > maxLen || cap(f.items) > maxLen {
		f.keys, f.nodes, f.items = nil, nil, nil
	}
	if cap(f.best) > maxLen {
		f.best = nil
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

// tighten counts d among the k smallest distances in h, a max-heap of
// at most k, and returns the heap. Once h holds k, the bound drops to the
// largest of them if it is not lower yet. A full heap is only offered
// d <= h[0] (the bound is at most h[0], and nothing beyond the bound is
// offered), so d replaces the top.
func (f *Frontier[N]) tighten(h []float64, d float64) []float64 {
	if len(h) < f.k {
		h = append(h, d)
		i := len(h) - 1
		for i > 0 && h[(i-1)/2] < d {
			h[i] = h[(i-1)/2]
			i = (i - 1) / 2
		}
		h[i] = d
	} else {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if r := c + 1; r < len(h) && h[r] > h[c] {
				c = r
			}
			if !(h[c] > d) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = d
	}
	if len(h) == f.k {
		f.boundSq = min(f.boundSq, h[0])
	}
	return h
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
			s.f.PushItemAt(d, e.rect, e.id)
		} else {
			s.f.PushNodeAt(d, e.rect, e.child)
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
