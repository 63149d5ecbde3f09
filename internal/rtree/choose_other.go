//go:build !amd64

package rtree

import "rtreebuf/internal/geom"

// chooseLeast returns the index of the entry of es needing least
// enlargement to cover q (see chooseLeastLoop).
func chooseLeast(es []entry, q geom.Rect) int {
	return chooseLeastLoop(es, q)
}
