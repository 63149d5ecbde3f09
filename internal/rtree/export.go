package rtree

import (
	"fmt"

	"rtreebuf/internal/geom"
)

// NodeData is the serialization-friendly view of one node, decoupling the
// storage codec from tree internals. Page numbers are the level-order IDs
// from AssignPageIDs (root = 0).
type NodeData struct {
	Page     int
	Level    int // paper convention: 0 = root
	Leaf     bool
	Rects    []geom.Rect
	Children []int   // child page numbers; internal nodes only
	IDs      []int64 // data identifiers; leaves only
}

// ExportNodes returns every node in page order. It numbers the pages
// itself, so it is always safe to call.
func (t *Tree) ExportNodes() []NodeData {
	x := t.PageExporter()
	out := make([]NodeData, x.NumPages())
	for page := range out {
		x.Export(page, &out[page])
	}
	return out
}

// PageExporter reads a tree's nodes one page at a time, for a writer that
// wants them in page order without holding a NodeData for every node at
// once. It is a snapshot of the page numbering: valid until the tree is
// next updated, and safe for concurrent use until then.
type PageExporter struct {
	nodes []*node // by page number
}

// PageExporter numbers the pages in level order, as AssignPageIDs does,
// and returns the exporter over them.
func (t *Tree) PageExporter() PageExporter {
	return PageExporter{nodes: t.levelOrder()}
}

// NumPages returns the number of pages, which are numbered from 0.
func (x PageExporter) NumPages() int { return len(x.nodes) }

// Export overwrites *nd with the node on the given page, reusing the
// capacity of the slices nd already holds.
func (x PageExporter) Export(page int, nd *NodeData) {
	n := x.nodes[page]
	*nd = NodeData{
		Page:     page,
		Level:    x.nodes[0].height - n.height,
		Leaf:     n.isLeaf(),
		Rects:    nd.Rects[:0],
		Children: nd.Children[:0],
		IDs:      nd.IDs[:0],
	}
	for _, e := range n.entries {
		nd.Rects = append(nd.Rects, e.rect)
		if nd.Leaf {
			nd.IDs = append(nd.IDs, e.id)
		} else {
			nd.Children = append(nd.Children, e.child.page)
		}
	}
}

// ImportNodes reconstructs a tree from exported node data. The root must
// be page 0. The rebuilt tree is fully validated: malformed input (missing
// pages, cycles, inconsistent levels, child MBR mismatches) is rejected
// rather than producing a silently corrupt index.
func ImportNodes(p Params, nodes []NodeData) (*Tree, error) {
	np, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("rtree: import of zero nodes")
	}
	byPage := make(map[int]*NodeData, len(nodes))
	maxLevel := 0
	for i := range nodes {
		nd := &nodes[i]
		if _, dup := byPage[nd.Page]; dup {
			return nil, fmt.Errorf("rtree: duplicate page %d", nd.Page)
		}
		byPage[nd.Page] = nd
		if nd.Level > maxLevel {
			maxLevel = nd.Level
		}
		if nd.Leaf {
			if len(nd.IDs) != len(nd.Rects) {
				return nil, fmt.Errorf("rtree: page %d: %d IDs for %d rects", nd.Page, len(nd.IDs), len(nd.Rects))
			}
		} else if len(nd.Children) != len(nd.Rects) {
			return nil, fmt.Errorf("rtree: page %d: %d children for %d rects", nd.Page, len(nd.Children), len(nd.Rects))
		}
	}
	rootData, ok := byPage[0]
	if !ok {
		return nil, fmt.Errorf("rtree: no root page 0")
	}
	if rootData.Level != 0 {
		return nil, fmt.Errorf("rtree: root page at level %d", rootData.Level)
	}

	built := make(map[int]*node, len(nodes))
	var build func(page int) (*node, error)
	build = func(page int) (*node, error) {
		if _, cyc := built[page]; cyc {
			return nil, fmt.Errorf("rtree: page %d referenced twice (cycle or shared child)", page)
		}
		nd, ok := byPage[page]
		if !ok {
			return nil, fmt.Errorf("rtree: missing page %d", page)
		}
		n := &node{height: maxLevel - nd.Level, page: page}
		built[page] = n
		if nd.Leaf != (n.height == 0) {
			return nil, fmt.Errorf("rtree: page %d leaf flag inconsistent with level %d (tree depth %d)",
				page, nd.Level, maxLevel)
		}
		n.entries = make([]entry, len(nd.Rects))
		for i, r := range nd.Rects {
			n.entries[i] = entry{rect: r}
			if nd.Leaf {
				n.entries[i].id = nd.IDs[i]
			} else {
				child, err := build(nd.Children[i])
				if err != nil {
					return nil, err
				}
				if child.height != n.height-1 {
					return nil, fmt.Errorf("rtree: page %d child %d at wrong level", page, nd.Children[i])
				}
				child.parent = n
				n.entries[i].child = child
			}
		}
		return n, nil
	}
	root, err := build(0)
	if err != nil {
		return nil, err
	}
	if len(built) != len(nodes) {
		return nil, fmt.Errorf("rtree: %d of %d pages unreachable from root", len(nodes)-len(built), len(nodes))
	}

	t := &Tree{root: root, params: np, pagesValid: true}
	t.walk(func(n *node) {
		if n.isLeaf() {
			t.size += len(n.entries)
		}
	})
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("rtree: imported tree invalid: %w", err)
	}
	return t, nil
}
