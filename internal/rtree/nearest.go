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
// sift order — so two trees of the same shape visit nodes and report
// ties in the same order.

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
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return dx*dx + dy*dy
}

// frontierEntry is a prioritized traversal element: a node reference or
// a data item.
type frontierEntry[N any] struct {
	distSq float64
	node   N // meaningful when isItem is false
	isItem bool
	item   Item
}

// Frontier is the priority queue of one best-first search over nodes
// referenced by N, keyed on squared distance to the query point. It is a
// slice-backed binary heap of concrete entries: nothing is boxed. The
// zero value is ready for BestFirst, and so is a used one: each search
// starts from an empty queue on the backing array the last one grew.
type Frontier[N any] struct {
	p       geom.Point
	limitSq float64
	h       []frontierEntry[N]
}

// BestFirst runs the Hjaltason–Samet search from root around p and
// appends the items found to dst in ascending distance order, returning
// the extended slice. It stops after k items (k <= 0: no bound) and
// never queues anything farther than sqrt(limitSq) from p (+Inf: no
// bound). expand is how a node is read: it is called once per visited
// node, in visit order, and pushes the node's entries with PushNode or
// PushItem; an error from it ends the search.
func (f *Frontier[N]) BestFirst(dst []Neighbor, p geom.Point, root N, k int, limitSq float64, expand func(n N) error) ([]Neighbor, error) {
	f.p, f.limitSq = p, limitSq
	f.h = append(f.h[:0], frontierEntry[N]{node: root}) //lint:allow hotalloc the queue grows once; a reused Frontier keeps its backing array
	found := 0
	for len(f.h) > 0 && (k <= 0 || found < k) {
		e := f.pop()
		if e.isItem {
			dst = append(dst, Neighbor{Item: e.item, Dist: math.Sqrt(e.distSq)}) //lint:allow hotalloc the result, appended to the caller's buffer
			found++
		} else if err := expand(e.node); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// PushNode queues the child node n, whose covering rectangle is r.
func (f *Frontier[N]) PushNode(r geom.Rect, n N) {
	if d := minDistSq(f.p, r); d <= f.limitSq {
		f.h = append(f.h, frontierEntry[N]{distSq: d, node: n}) //lint:allow hotalloc the queue grows once; a reused Frontier keeps its backing array
		f.siftUp()
	}
}

// PushItem queues the data item (r, id).
func (f *Frontier[N]) PushItem(r geom.Rect, id int64) {
	if d := minDistSq(f.p, r); d <= f.limitSq {
		f.h = append(f.h, frontierEntry[N]{distSq: d, isItem: true, item: Item{Rect: r, ID: id}}) //lint:allow hotalloc the queue grows once; a reused Frontier keeps its backing array
		f.siftUp()
	}
}

// siftUp restores heap order after an append.
func (f *Frontier[N]) siftUp() {
	h := f.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].distSq <= h[i].distSq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (f *Frontier[N]) pop() frontierEntry[N] {
	h := f.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].distSq < h[smallest].distSq {
			smallest = l
		}
		if r < len(h) && h[r].distSq < h[smallest].distSq {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	f.h = h
	return top
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
// minimum Euclidean distance; ties are broken by traversal order.
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
