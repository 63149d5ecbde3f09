package rtree

import (
	"math/rand/v2"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
)

// validTree builds a three-level tree by insertion so corruption tests
// have internal nodes to damage.
func validTree(t *testing.T) *Tree {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 13))
	tr := MustNew(Params{MaxEntries: 4, MinEntries: 2})
	tr.InsertAll(testItems(rng, 200))
	if tr.Height() < 3 {
		t.Fatalf("fixture tree too shallow: height %d", tr.Height())
	}
	if err := ValidateTreeStrict(tr); err != nil {
		t.Fatalf("fixture tree invalid before corruption: %v", err)
	}
	return tr
}

// firstLeaf returns the leftmost leaf of the tree.
func firstLeaf(tr *Tree) *node {
	n := tr.root
	for !n.isLeaf() {
		n = n.entries[0].child
	}
	return n
}

func TestValidateTreeDetectsSeededCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(tr *Tree)
		want    string // substring of the expected error
	}{
		{
			name: "stale parent MBR",
			corrupt: func(tr *Tree) {
				e := &tr.root.entries[0]
				e.rect = e.rect.Expand(0.05, 0.05)
			},
			want: "child MBR",
		},
		{
			name: "leaf entry escapes ancestor MBR",
			corrupt: func(tr *Tree) {
				leaf := firstLeaf(tr)
				leaf.entries[0].rect = leaf.entries[0].rect.Translate(2, 2)
			},
			// The immediate parent's stored rect no longer matches the
			// recomputed leaf MBR.
			want: "child MBR",
		},
		{
			name: "stale mid-level entry rect",
			corrupt: func(tr *Tree) {
				mid := tr.root.entries[0].child
				mid.entries[0].rect = mid.entries[0].rect.Expand(0.5, 0.5)
			},
			want: "child MBR",
		},
		{
			name: "overfull node",
			corrupt: func(tr *Tree) {
				leaf := firstLeaf(tr)
				for len(leaf.entries) <= tr.params.MaxEntries {
					leaf.entries = append(leaf.entries, leaf.entries[0])
				}
			},
			want: "entries > max",
		},
		{
			name: "non-uniform leaf depth",
			corrupt: func(tr *Tree) {
				// Replace a mid-level child with a leaf: the leaf now sits
				// one level higher than its siblings.
				mid := tr.root.entries[0].child
				leaf := firstLeaf(tr)
				mid.entries[0].child = &node{
					parent:  mid,
					entries: leaf.entries,
					height:  0,
				}
			},
			want: "height",
		},
		{
			name: "empty internal child",
			corrupt: func(tr *Tree) {
				tr.root.entries[0].child.entries[0].child.entries = nil
			},
			want: "empty",
		},
		{
			name: "broken parent pointer",
			corrupt: func(tr *Tree) {
				tr.root.entries[0].child.parent = nil
			},
			want: "parent",
		},
		{
			name: "leaf entry with child",
			corrupt: func(tr *Tree) {
				leaf := firstLeaf(tr)
				leaf.entries[0].child = &node{}
			},
			want: "leaf entry",
		},
		{
			name: "invalid leaf rect",
			corrupt: func(tr *Tree) {
				leaf := firstLeaf(tr)
				r := &leaf.entries[0].rect
				r.MinX, r.MaxX = r.MaxX, r.MinX // inverted extent
				// Refresh ancestor rects so only Valid() can catch it.
				for n := leaf; n.parent != nil; n = n.parent {
					for i := range n.parent.entries {
						if n.parent.entries[i].child == n {
							n.parent.entries[i].rect = n.mbr()
						}
					}
				}
			},
			want: "invalid rect",
		},
		{
			name:    "size mismatch",
			corrupt: func(tr *Tree) { tr.size++ },
			want:    "items",
		},
		{
			name: "leaf at height 1",
			corrupt: func(tr *Tree) {
				// Give the lowest internal node data entries of its own: a
				// leaf at height 1 beside the height-0 leaves.
				n := firstLeaf(tr).parent
				n.entries = append([]entry(nil), firstLeaf(tr).entries...)
				for ; n.parent != nil; n = n.parent {
					for i := range n.parent.entries {
						if n.parent.entries[i].child == n {
							n.parent.entries[i].rect = n.mbr()
						}
					}
				}
			},
			want: "nil child",
		},
		{
			name:    "root with a parent",
			corrupt: func(tr *Tree) { tr.root.parent = tr.root.entries[0].child },
			want:    "parent",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTree(t)
			tc.corrupt(tr)
			err := tr.CheckInvariants()
			if err == nil {
				t.Fatalf("CheckInvariants accepted tree with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateTreeStrictCatchesUnderfill(t *testing.T) {
	tr := validTree(t)
	leaf := firstLeaf(tr)
	// Drop leaf entries below MinEntries and refresh ancestor rects so the
	// base validator stays satisfied.
	leaf.entries = leaf.entries[:1]
	tr.size = 0
	tr.walk(func(n *node) {
		if n.isLeaf() {
			tr.size += len(n.entries)
		}
	})
	for n := leaf; n.parent != nil; n = n.parent {
		for i := range n.parent.entries {
			if n.parent.entries[i].child == n {
				n.parent.entries[i].rect = n.mbr()
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("base validator should accept underfilled node: %v", err)
	}
	if err := ValidateTreeStrict(tr); err == nil {
		t.Error("ValidateTreeStrict accepted an underfilled node")
	}
}

func TestValidateTreeAcceptsEmptyAndPackedTrees(t *testing.T) {
	if err := MustNew(Params{MaxEntries: 4}).CheckInvariants(); err != nil {
		t.Errorf("empty tree rejected: %v", err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	items := testItems(rng, 133) // not a multiple of capacity: trailing nodes run short
	tr, err := Pack(Params{MaxEntries: 4}, items, Ordering(func(rects []geom.Rect, _ int) []int {
		out := make([]int, len(rects))
		for i := range out {
			out[i] = i
		}
		return out
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("packed tree rejected: %v", err)
	}
}
