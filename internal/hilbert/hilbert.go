// Package hilbert implements the two-dimensional Hilbert space-filling
// curve used by the Hilbert Sort (HS) packing algorithm of Kamel and
// Faloutsos. The curve of order k visits every cell of a 2^k x 2^k grid
// exactly once, without self-intersections, and has the locality property
// the paper relies on: points close along the curve are geographically
// close in the plane.
//
// Both directions are provided: Encode maps grid coordinates to the
// distance along the curve, Decode inverts it. EncodePoint maps a point of
// the unit square onto the curve at a given order.
package hilbert

import (
	"fmt"

	"rtreebuf/internal/par"
)

// MaxOrder is the largest supported curve order. Encode returns a uint64
// distance of 2*order bits, so orders up to 31 keep the distance within
// 62 bits with headroom for arithmetic.
const MaxOrder = 31

// DefaultOrder is the grid resolution used by the HS packing algorithm:
// a 2^16 x 2^16 grid is far finer than any of the paper's data sets need,
// while keeping sort keys cheap.
const DefaultOrder = 16

// Encode returns the distance along the order-k Hilbert curve of the grid
// cell (x, y). x and y must lie in [0, 2^order). It panics on out-of-range
// input: callers always control the grid mapping, so a violation is a bug.
//
// The curve is walked as a four-state machine, stepBits bits of each
// coordinate per table lookup. The state is the transform the quadrants
// entered so far have applied to everything below them — any combination
// of "swap x and y" and "complement both" — and an order that is not a
// multiple of stepBits is padded with leading zero bits: a (0,0) quadrant
// contributes distance 0 and toggles the swap, so an odd pad starts
// swapped to arrive at the first real bit in the identity state.
func Encode(order uint, x, y uint32) uint64 {
	side := checkOrder(order)
	if uint64(x) >= side || uint64(y) >= side {
		panic(fmt.Sprintf("hilbert: cell (%d,%d) outside order-%d grid", x, y, order))
	}
	return encode(order, x, y)
}

// encode is Encode without the argument checks.
func encode(order uint, x, y uint32) uint64 {
	steps := (order + stepBits - 1) / stepBits
	state := uint16(steps*stepBits-order) & stateSwap
	var d uint64
	for sh := steps * stepBits; sh > 0; {
		sh -= stepBits
		e := steps4[state][(x>>sh&stepMask)<<stepBits|y>>sh&stepMask]
		d = d<<(2*stepBits) | uint64(e&0xff)
		state = e >> 8
	}
	return d
}

const (
	stepBits = 4
	stepMask = 1<<stepBits - 1

	stateSwap       = 1 // x and y trade places
	stateComplement = 2 // both coordinates are complemented
)

// steps4[state][x<<stepBits|y] holds, for stepBits bits of each
// coordinate entered in the given state, the 2*stepBits bits of distance
// they contribute (low byte) and the state they leave behind (high byte).
var steps4 = buildSteps()

func buildSteps() (t [4][1 << (2 * stepBits)]uint16) {
	for state := range t {
		for in := range t[state] {
			s, out := uint16(state), uint16(0)
			for bit := stepBits - 1; bit >= 0; bit-- {
				rx := uint16(in>>(stepBits+bit)) & 1
				ry := uint16(in>>bit) & 1
				if s&stateComplement != 0 {
					rx, ry = rx^1, ry^1
				}
				if s&stateSwap != 0 {
					rx, ry = ry, rx
				}
				out = out<<2 | ((3 * rx) ^ ry)
				// The quadrant's own rotation/reflection (see rotate),
				// composed onto the state: the transforms commute.
				if ry == 0 {
					s ^= stateSwap
					if rx == 1 {
						s ^= stateComplement
					}
				}
			}
			t[state][in] = s<<8 | out
		}
	}
	return t
}

// Decode returns the grid cell (x, y) at distance d along the order-k
// Hilbert curve. d must lie in [0, 4^order); Decode panics otherwise.
func Decode(order uint, d uint64) (x, y uint32) {
	side := checkOrder(order)
	if d >= side*side {
		panic(fmt.Sprintf("hilbert: distance %d outside order-%d curve", d, order))
	}
	t := d
	for s := uint64(1); s < side; s *= 2 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rotate(uint32(s), x, y, rx, ry)
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

// EncodePoint maps a point of the unit square onto the order-k curve,
// snapping the point to the enclosing grid cell. Coordinates outside
// [0,1] are clamped: data is normalized to the unit square upstream, but
// floating-point noise at the boundary must not panic. NaN maps to cell 0.
func EncodePoint(order uint, px, py float64) uint64 {
	side := checkOrder(order)
	return encode(order, toCell(px, side), toCell(py, side))
}

// encodeGrain is the fewest points worth a goroutine of their own in
// EncodePoints: a few tens of microseconds of encoding.
const encodeGrain = 1 << 13

// EncodePoints is EncodePoint over the points (xs[i], ys[i]): the sort
// keys of a Hilbert ordering, filled in parallel chunks.
func EncodePoints(order uint, xs, ys []float64) []uint64 {
	side := checkOrder(order)
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("hilbert: %d x for %d y coordinates", len(xs), len(ys)))
	}
	keys := make([]uint64, len(xs))
	par.Chunks(len(keys), encodeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = encode(order, toCell(xs[i], side), toCell(ys[i], side))
		}
	})
	return keys
}

// toCell snaps v to one of side cells over [0,1]. The out-of-range cases
// are decided before the conversion: what uint64 makes of NaN, or of a
// product beyond its range, is implementation-defined in Go, and a sort
// key must not depend on the platform.
func toCell(v float64, side uint64) uint32 {
	if !(v > 0) { // negative, zero or NaN
		return 0
	}
	if v >= 1 {
		return uint32(side - 1)
	}
	return uint32(v * float64(side))
}

// rotate applies the quadrant rotation/reflection of the standard
// Hilbert-curve construction.
func rotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

func checkOrder(order uint) uint64 {
	if order < 1 || order > MaxOrder {
		panic(fmt.Sprintf("hilbert: order %d outside [1,%d]", order, MaxOrder))
	}
	return uint64(1) << order
}
