package storage

import (
	"unsafe"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// chooseChild returns the index of the entry of entries (a page's entry
// bytes) needing least enlargement to cover rect (see chooseChildLoop).
// A page stores its rectangles as little-endian float64s, amd64's own
// order, at the start of each entry.
func chooseChild(entries []byte, rect geom.Rect) int {
	return rtree.ChooseSubtree(unsafe.Pointer(unsafe.SliceData(entries)), len(entries)/entrySize, entrySize, rect)
}
