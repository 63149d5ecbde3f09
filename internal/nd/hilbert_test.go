package nd

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHilbertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, dims := range []int{2, 3, 4, 6} {
		bits := HilbertBits(dims)
		side := uint64(1) << bits
		for i := 0; i < 2000; i++ {
			coords := make([]uint32, dims)
			for d := range coords {
				coords[d] = uint32(rng.Uint64N(side))
			}
			key := HilbertEncode(coords, bits)
			back := HilbertDecode(key, dims, bits)
			for d := range coords {
				if back[d] != coords[d] {
					t.Fatalf("dims %d: roundtrip %v -> %v", dims, coords, back)
				}
			}
		}
	}
}

func TestHilbertBijectionSmall(t *testing.T) {
	// Exhaustive bijection check: 3 dims, 3 bits => 512 cells.
	const dims, bits = 3, 3
	total := uint64(1) << (dims * bits)
	seen := make([]bool, total)
	side := uint32(1) << bits
	var c [dims]uint32
	for c[0] = 0; c[0] < side; c[0]++ {
		for c[1] = 0; c[1] < side; c[1]++ {
			for c[2] = 0; c[2] < side; c[2]++ {
				key := HilbertEncode(c[:], bits)
				if key >= total {
					t.Fatalf("key %d out of range", key)
				}
				if seen[key] {
					t.Fatalf("key %d duplicated", key)
				}
				seen[key] = true
			}
		}
	}
}

// Continuity: consecutive keys decode to cells at Manhattan distance 1 —
// the defining Hilbert property, in every dimension.
func TestHilbertContinuity(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		const bits = 3
		total := uint64(1) << (uint(dims) * bits)
		prev := HilbertDecode(0, dims, bits)
		for d := uint64(1); d < total; d++ {
			cur := HilbertDecode(d, dims, bits)
			dist := uint32(0)
			for i := range cur {
				if cur[i] > prev[i] {
					dist += cur[i] - prev[i]
				} else {
					dist += prev[i] - cur[i]
				}
			}
			if dist != 1 {
				t.Fatalf("dims %d: jump at key %d: %v -> %v", dims, d, prev, cur)
			}
			prev = cur
		}
	}
}

func TestHilbertBits(t *testing.T) {
	if HilbertBits(2) != 31 {
		t.Errorf("HilbertBits(2) = %d", HilbertBits(2))
	}
	if HilbertBits(3) != 21 {
		t.Errorf("HilbertBits(3) = %d", HilbertBits(3))
	}
	if HilbertBits(8) != 7 {
		t.Errorf("HilbertBits(8) = %d", HilbertBits(8))
	}
}

func TestHilbertKeyClamping(t *testing.T) {
	bits := HilbertBits(3)
	// Out-of-range coordinates clamp instead of panicking.
	k1 := HilbertKey(Point{-0.5, 1.5, 0.5}, bits)
	k2 := HilbertKey(Point{0, 1, 0.5}, bits)
	if k1 != k2 {
		t.Errorf("clamped keys differ: %d vs %d", k1, k2)
	}
	// Non-finite coordinates have a cell too: NaN the first, the
	// infinities the ends.
	k3 := HilbertKey(Point{math.NaN(), math.Inf(1), math.Inf(-1)}, bits)
	k4 := HilbertKey(Point{0, 1, 0}, bits)
	if k3 != k4 {
		t.Errorf("non-finite keys differ: %d vs %d", k3, k4)
	}
}

func TestHilbertPanics(t *testing.T) {
	cases := []func(){
		func() { HilbertEncode([]uint32{1}, 4) },       // 1 dim
		func() { HilbertEncode(make([]uint32, 2), 0) }, // 0 bits
		func() { HilbertEncode(make([]uint32, 9), 8) }, // 72 bits
		func() { HilbertEncode([]uint32{16, 0}, 4) },   // coord out of range
		func() { HilbertDecode(0, 1, 4) },              // 1 dim
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Locality in 3-D: adjacent keys are geometrically far closer than random
// pairs — what makes Hilbert packing work in any dimension.
func TestHilbertLocality3D(t *testing.T) {
	const dims, bits = 3, 6
	total := uint64(1) << (dims * bits)
	rng := rand.New(rand.NewPCG(13, 14))
	var adjacent, random float64
	const samples = 3000
	for i := 0; i < samples; i++ {
		d := rng.Uint64N(total - 1)
		a := HilbertDecode(d, dims, bits)
		b := HilbertDecode(d+1, dims, bits)
		adjacent += dist2nd(a, b)
		c1 := HilbertDecode(rng.Uint64N(total), dims, bits)
		c2 := HilbertDecode(rng.Uint64N(total), dims, bits)
		random += dist2nd(c1, c2)
	}
	if adjacent*50 > random {
		t.Errorf("weak locality: adjacent %g vs random %g", adjacent/samples, random/samples)
	}
}

func dist2nd(a, b []uint32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}
