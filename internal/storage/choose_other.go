//go:build !amd64

package storage

import "rtreebuf/internal/geom"

// chooseChild returns the index of the entry of entries (a page's entry
// bytes) needing least enlargement to cover rect (see chooseChildLoop).
func chooseChild(entries []byte, rect geom.Rect) int {
	return chooseChildLoop(entries, rect)
}
