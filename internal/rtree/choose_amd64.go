package rtree

import (
	"unsafe"

	"rtreebuf/internal/geom"
)

// ChooseSubtree is Guttman's least-enlargement ChooseSubtree over n
// records stride bytes apart from base, each starting with a rectangle
// stored as four float64s (MinX, MinY, MaxX, MaxY) in the machine's byte
// order: it returns the index of the record whose rectangle needs the
// least area enlargement to cover q, ties to the smaller area and then to
// the lower index, or -1 when n is 0. No rectangle may hold a NaN; the
// two trees refuse those before they are stored.
//
// It is the amd64 kernel of the in-memory tree's chooseNode and of the
// paged updater's descent, and chooses what their portable loops
// (chooseLeastLoop here, chooseChildLoop in storage) choose, bit for bit:
// MINPD/MAXPD differ from Go's min/max only for a NaN operand and in the
// sign of a zero result, and a zero's sign changes no later < or ==
// (DESIGN §7c).
//
//go:noescape
func ChooseSubtree(base unsafe.Pointer, n, stride int, q geom.Rect) int

// The kernel reads an entry's rectangle at the entry's start.
var _ = [1]struct{}{}[unsafe.Offsetof(entry{}.rect)]

// chooseLeast returns the index of the entry of es needing least
// enlargement to cover q (see chooseLeastLoop).
func chooseLeast(es []entry, q geom.Rect) int {
	return ChooseSubtree(unsafe.Pointer(unsafe.SliceData(es)), len(es), int(unsafe.Sizeof(entry{})), q)
}
