// Package rtree implements the R-tree of Guttman as used by the paper: a
// height-balanced tree of axis-parallel rectangles supporting intersection
// queries, tuple-at-a-time insertion with the quadratic (and, as an
// ablation, linear) node-splitting heuristic, deletion with tree
// condensation, and the per-level MBR extraction that feeds the buffer
// cost model.
//
// Level numbering follows the paper: level 0 is the root and level H is
// the leaf level of a tree with H+1 levels. Internally nodes store their
// height above the leaves (leaf = 0), which survives root growth; the
// public accessors convert.
package rtree

import (
	"fmt"
	"sync"

	"rtreebuf/internal/geom"
)

// SplitAlgorithm selects the node-splitting heuristic used on overflow.
type SplitAlgorithm int

const (
	// SplitQuadratic is Guttman's quadratic-cost split, the heuristic the
	// paper's TAT loading algorithm uses.
	SplitQuadratic SplitAlgorithm = iota
	// SplitLinear is Guttman's linear-cost split, provided as an ablation.
	SplitLinear
	// SplitRStar selects the R*-tree insertion heuristics of Beckmann et
	// al. (reference [1] of the paper): overlap-minimizing ChooseSubtree
	// above the leaf level, the margin-driven topological split, and
	// forced reinsertion of 30% of an overflowing node's entries before
	// the first split at each level. The paper's model evaluates "any
	// R-tree update operation"; this is the strongest contemporary one.
	SplitRStar
)

// String implements fmt.Stringer.
func (s SplitAlgorithm) String() string {
	switch s {
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	case SplitRStar:
		return "rstar"
	default:
		return fmt.Sprintf("SplitAlgorithm(%d)", int(s))
	}
}

// Params configures an R-tree.
type Params struct {
	// MaxEntries is the node capacity n: the maximum number of entries
	// per node. It must be at least 2.
	MaxEntries int
	// MinEntries is the minimum fill m <= MaxEntries/2 enforced by splits
	// and deletions (except at the root). Zero selects the conventional
	// 40% of MaxEntries (at least 2, and at most MaxEntries/2).
	MinEntries int
	// Split selects the overflow splitting heuristic.
	Split SplitAlgorithm
}

// normalized validates p and fills defaults. It returns an error rather
// than panicking: capacities frequently come from user flags.
func (p Params) normalized() (Params, error) {
	if p.MaxEntries < 2 {
		return p, fmt.Errorf("rtree: MaxEntries %d < 2", p.MaxEntries)
	}
	if p.MinEntries == 0 {
		p.MinEntries = p.MaxEntries * 2 / 5 // Guttman's 40% convention
		if p.MinEntries < 1 {
			p.MinEntries = 1
		}
	}
	if p.MinEntries < 1 || p.MinEntries > p.MaxEntries/2 {
		return p, fmt.Errorf("rtree: MinEntries %d outside [1, MaxEntries/2=%d]",
			p.MinEntries, p.MaxEntries/2)
	}
	if p.Split != SplitQuadratic && p.Split != SplitLinear && p.Split != SplitRStar {
		return p, fmt.Errorf("rtree: unknown split algorithm %d", int(p.Split))
	}
	return p, nil
}

// Item is a data rectangle stored at the leaf level together with the
// caller's identifier (typically the index of the rectangle in the input
// data set).
type Item struct {
	Rect geom.Rect
	ID   int64
}

// entry is one slot of a node: a rectangle plus either a child pointer
// (internal nodes) or a data identifier (leaves).
type entry struct {
	rect  geom.Rect
	child *node // nil at leaves
	id    int64 // meaningful at leaves only
}

// node is an R-tree node. height is the node's height above the leaf
// level (leaf = 0).
type node struct {
	parent  *node
	entries []entry
	height  int
	page    int // level-order page number; valid while Tree.pagesValid
}

func (n *node) isLeaf() bool { return n.height == 0 }

// mbr returns the minimum bounding rectangle of the node's entries.
// It panics on an empty node: only a freshly split or root node may be
// momentarily empty, and neither should have its MBR taken.
func (n *node) mbr() geom.Rect {
	if len(n.entries) == 0 {
		panic("rtree: MBR of empty node")
	}
	out := n.entries[0].rect
	for _, e := range n.entries[1:] {
		out = out.Union(e.rect)
	}
	return out
}

// Tree is an R-tree. The zero value is not usable; construct with New or
// a bulk loader from package pack.
type Tree struct {
	root       *node
	params     Params
	size       int  // number of data items
	pagesValid bool // page numbers current since last AssignPageIDs
	scratch    updateScratch
	searches   sync.Pool // recycled window and kNN searches (*treeSearch), holding no node between searches
}

// New returns an empty R-tree with the given parameters.
func New(p Params) (*Tree, error) {
	np, err := p.normalized()
	if err != nil {
		return nil, err
	}
	return &Tree{
		root:   &node{height: 0},
		params: np,
	}, nil
}

// MustNew is New for parameters known correct at compile time; it panics
// on error.
func MustNew(p Params) *Tree {
	t, err := New(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Params returns the tree's (normalized) parameters.
func (t *Tree) Params() Params { return t.params }

// Len returns the number of data items stored.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels H+1 of the tree (a tree holding a
// single leaf node has height 1). An empty tree has height 1: the empty
// root is still a leaf page.
func (t *Tree) Height() int { return t.root.height + 1 }

// Bounds returns the MBR of all stored items and false if the tree is empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if len(t.root.entries) == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

// NodeCount returns the total number of nodes M in the tree.
func (t *Tree) NodeCount() int {
	total := 0
	t.walk(func(*node) { total++ })
	return total
}

// walk visits every node in depth-first pre-order.
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
