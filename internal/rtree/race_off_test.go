//go:build !race

package rtree

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
