package nd

import "fmt"

// n-dimensional Hilbert curve via Skilling's transform (J. Skilling,
// "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004): a
// constant-space bit transpose between axis coordinates and the Hilbert
// "transpose" representation. Used by the d-dimensional Hilbert-sort
// packing ordering.

// hilbertAxesToTranspose converts axis coordinates (each using `bits`
// low-order bits) in place to the transposed Hilbert representation.
func hilbertAxesToTranspose(x []uint32, bits uint) {
	n := len(x)
	// Inverse undo excess work.
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else { // exchange
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// hilbertTransposeToAxes is the inverse of hilbertAxesToTranspose.
func hilbertTransposeToAxes(x []uint32, bits uint) {
	n := len(x)
	var t uint32 = x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	for q := uint32(2); q != 1<<bits; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// transposeToIndex interleaves the transposed representation into a
// single distance: bit (bits-1-b) of every axis in order forms the most
// significant bit group. Requires dims*bits <= 64.
func transposeToIndex(x []uint32, bits uint) uint64 {
	var d uint64
	for b := bits; b > 0; b-- {
		for i := 0; i < len(x); i++ {
			d = d<<1 | uint64((x[i]>>(b-1))&1)
		}
	}
	return d
}

// indexToTranspose inverts transposeToIndex.
func indexToTranspose(d uint64, dims int, bits uint) []uint32 {
	x := make([]uint32, dims)
	for b := uint(0); b < bits; b++ {
		for i := dims - 1; i >= 0; i-- {
			x[i] |= uint32(d&1) << b
			d >>= 1
		}
	}
	return x
}

// HilbertEncode returns the distance along the order-`bits` Hilbert curve
// of the grid cell with the given axis coordinates. Each coordinate must
// use at most `bits` bits and dims*bits must fit in 64.
func HilbertEncode(coords []uint32, bits uint) uint64 {
	if len(coords) < 2 {
		panic(fmt.Sprintf("nd: Hilbert curve needs >= 2 dims, got %d", len(coords)))
	}
	if uint(len(coords))*bits > 64 || bits == 0 {
		panic(fmt.Sprintf("nd: %d dims x %d bits exceeds 64", len(coords), bits))
	}
	x := append([]uint32(nil), coords...)
	for _, c := range x {
		if bits < 32 && c >= 1<<bits {
			panic(fmt.Sprintf("nd: coordinate %d outside %d-bit grid", c, bits))
		}
	}
	hilbertAxesToTranspose(x, bits)
	return transposeToIndex(x, bits)
}

// HilbertDecode inverts HilbertEncode.
func HilbertDecode(d uint64, dims int, bits uint) []uint32 {
	if dims < 2 || uint(dims)*bits > 64 || bits == 0 {
		panic(fmt.Sprintf("nd: invalid Hilbert parameters dims=%d bits=%d", dims, bits))
	}
	x := indexToTranspose(d, dims, bits)
	hilbertTransposeToAxes(x, bits)
	return x
}

// HilbertBits returns the largest per-axis bit width usable for the given
// dimensionality (dims*bits <= 63 keeps keys comfortably in uint64).
func HilbertBits(dims int) uint {
	if dims < 2 {
		panic("nd: HilbertBits needs dims >= 2")
	}
	b := uint(63 / dims)
	if b > 31 {
		b = 31
	}
	return b
}

// HilbertKey maps a point of the unit cube onto the curve, snapping each
// coordinate to the grid and clamping floating-point noise at the
// boundary. The out-of-range cases are decided before the conversion, as
// in hilbert.EncodePoint: what uint64 makes of NaN (here cell 0) or of a
// product beyond its range is implementation-defined in Go.
func HilbertKey(p Point, bits uint) uint64 {
	coords := make([]uint32, len(p))
	side := uint64(1) << bits
	for i, v := range p {
		switch {
		case !(v > 0): // negative, zero or NaN
			coords[i] = 0
		case v >= 1:
			coords[i] = uint32(side - 1)
		default:
			coords[i] = uint32(v * float64(side))
		}
	}
	return HilbertEncode(coords, bits)
}
