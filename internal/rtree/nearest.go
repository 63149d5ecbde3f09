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

// frontierKey is one heap slot: an entry's squared distance and its push
// sequence number, which indexes Frontier.entries.
type frontierKey struct {
	distSq float64
	seq    int
}

// before is the frontier's total order: nearer first, and of two
// equidistant entries the one pushed first.
func (a frontierKey) before(b frontierKey) bool {
	return a.distSq < b.distSq || !(b.distSq < a.distSq) && a.seq < b.seq
}

// frontierEntry is a queued traversal element: a node reference or a
// data item.
type frontierEntry[N any] struct {
	item   Item
	node   N // meaningful when isItem is false
	isItem bool
}

// Frontier is the priority queue of one best-first search over nodes
// referenced by N. Its heap holds compact (distance, push order) keys;
// the entries they name sit in an append-only slice. Nothing is boxed.
// The zero value is ready for BestFirst, and so is a used one: each
// search starts from an empty queue on the backing arrays the last one
// grew.
//
// A search for k items also keeps the k smallest item distances queued
// so far and, once it has k, queues nothing farther than the largest of
// them. Such an entry could never be returned: the k items at or below
// that distance all pop before it, and anything below it is no nearer.
// Ties pop in push order, so dropping it moves nothing else — pop order,
// nodes expanded and results are those of the same search without the
// bound.
type Frontier[N any] struct {
	p       geom.Point
	k       int
	boundSq float64            // nothing farther is queued: limitSq, then the k-th best item distance
	keys    []frontierKey      // binary min-heap in before order
	entries []frontierEntry[N] // entries[seq] for every key pushed in this search
	best    []float64          // max-heap of the k smallest queued item distances (k > 0)
}

// BestFirst runs the Hjaltason–Samet search from root around p and
// appends the items found to dst in ascending distance order, returning
// the extended slice. It stops after k items (k <= 0: no bound) and
// never queues anything farther than sqrt(limitSq) from p (+Inf: no
// bound). expand is how a node is read: it is called once per visited
// node, in visit order, and pushes the node's entries with PushNode or
// PushItem; an error from it ends the search.
func (f *Frontier[N]) BestFirst(dst []Neighbor, p geom.Point, root N, k int, limitSq float64, expand func(n N) error) ([]Neighbor, error) {
	f.p, f.k, f.boundSq = p, k, limitSq
	f.keys, f.entries, f.best = f.keys[:0], f.entries[:0], f.best[:0]
	f.push(0, frontierEntry[N]{node: root})
	found := 0
	for len(f.keys) > 0 && (k <= 0 || found < k) {
		key := f.pop()
		if e := &f.entries[key.seq]; e.isItem {
			dst = append(dst, Neighbor{Item: e.item, Dist: math.Sqrt(key.distSq)}) //lint:allow hotalloc the result, appended to the caller's buffer
			found++
		} else if err := expand(e.node); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// PushNode queues the child node n, whose covering rectangle is r.
func (f *Frontier[N]) PushNode(r geom.Rect, n N) {
	if d := minDistSq(f.p, r); d <= f.boundSq {
		f.push(d, frontierEntry[N]{node: n})
	}
}

// PushItem queues the data item (r, id).
func (f *Frontier[N]) PushItem(r geom.Rect, id int64) {
	if d := minDistSq(f.p, r); d <= f.boundSq {
		f.push(d, frontierEntry[N]{item: Item{Rect: r, ID: id}, isItem: true})
		if f.k > 0 {
			f.tighten(d)
		}
	}
}

// push queues e at squared distance d, behind everything already queued
// at d.
func (f *Frontier[N]) push(d float64, e frontierEntry[N]) {
	x := frontierKey{d, len(f.entries)}
	f.entries = append(f.entries, e) //lint:allow hotalloc the queue grows once; a reused Frontier keeps its backing array
	f.keys = append(f.keys, x)       //lint:allow hotalloc the queue grows once; a reused Frontier keeps its backing array
	h := f.keys
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

// tighten counts a queued item's squared distance d among the k smallest
// (f.best, a max-heap) and, once it holds k, lowers the bound to the
// largest of them. A full heap only sees d <= f.best[0] (anything farther
// was not queued), so d replaces the top.
func (f *Frontier[N]) tighten(d float64) {
	h := f.best
	if len(h) < f.k {
		h = append(h, d) //lint:allow hotalloc grows to k once; a reused Frontier keeps its backing array
		i := len(h) - 1
		for i > 0 && h[(i-1)/2] < d {
			h[i] = h[(i-1)/2]
			i = (i - 1) / 2
		}
		h[i] = d
		f.best = h
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
		f.boundSq = h[0]
	}
}

// bestFirst is BestFirst over the in-memory tree's nodes, which cannot
// fail to read. visit, when non-nil, sees every node as it is expanded.
func (t *Tree) bestFirst(p geom.Point, k int, limitSq float64, visit func(*node)) []Neighbor {
	if t.size == 0 {
		return nil
	}
	var f Frontier[*node]
	out, _ := f.BestFirst(nil, p, t.root, k, limitSq, func(n *node) error { // expand below never fails
		if visit != nil {
			visit(n)
		}
		for _, e := range n.entries {
			if n.isLeaf() {
				f.PushItem(e.rect, e.id)
			} else {
				f.PushNode(e.rect, e.child)
			}
		}
		return nil
	})
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
	return t.bestFirst(p, k, math.Inf(1), func(n *node) {
		visit(NodeVisit{Page: n.page, Level: t.root.height - n.height})
	})
}
